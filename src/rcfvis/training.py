"""Set-based supervision and the training loop.

Per frame: Hungarian-match ground truths to slots on the similarity matrix,
then minimize cross-entropy over all slots (unmatched slots are pushed to
the no-object class) plus Dice loss on the matched masks.  AdamW with the
poly LR schedule; reference features are recomputed with current weights
each iteration (no cache during training).
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .config import RunConfig
from .container import read_container, write_container
from .errors import ArgumentError, ConfigError, FormatError, NumericError
from .matching import DICE_SMOOTH, Assignment, hungarian_assign, shrink_mask, similarity_matrix
from .model import ModelOutput, RCFModel
from .optim import OptimState, adamw_step, poly_lr
from .synthav import SpriteClip, read_clip
from .tensor import Tensor, cross_entropy, dice_loss

LOG_EVERY = 50  # iterations between progress lines on stdout


@dataclass
class LossReport:
    loss: Tensor  # scalar, differentiable
    total: float
    ce: float
    dice: float


def set_loss(
    class_probs: Tensor,
    mask_logits: Tensor,
    gt_classes: np.ndarray,
    gt_masks: np.ndarray,
    assignment: Assignment,
    num_classes: int,
) -> LossReport:
    """Cross-entropy over every slot plus Dice loss on matched masks.

    `gt_masks` must already live on the prediction grid.  Mask loss applies
    only where the assigned ground-truth class is a real object.
    """
    n, n_cols = class_probs.shape
    if n_cols != num_classes + 1:
        raise ArgumentError(f"class head emits {n_cols} columns, expected {num_classes + 1}")
    g = len(assignment)
    if g != len(gt_classes):
        raise ArgumentError("assignment length disagrees with ground-truth count")
    if any(j >= n for j in assignment.gt_to_slot):
        raise ArgumentError("assignment references a slot outside the prediction")

    gt_masks = np.asarray(gt_masks)
    if gt_masks.shape != (g, *mask_logits.shape[1:]):
        raise ArgumentError(f"gt masks {gt_masks.shape} mismatch {g} masks on prediction grid {mask_logits.shape[1:]}")

    targets = np.full(n, num_classes)  # default target: no-object
    targets[list(assignment.gt_to_slot)] = gt_classes
    ce = cross_entropy(class_probs, targets)
    dice = dice_loss(mask_logits, assignment.gt_to_slot, gt_masks, DICE_SMOOTH)
    loss = ce + dice
    return LossReport(loss=loss, total=float(loss.data), ce=float(ce.data), dice=float(dice.data))


def frame_ground_truth(clip: SpriteClip, t: int, mask_hw: tuple[int, int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Visible instances at frame t: (indices, classes, masks on mask_hw grid)."""
    idx = np.flatnonzero(clip.visibility[t])
    classes = clip.gt_classes[idx]
    masks = np.stack([shrink_mask(clip.gt_masks[t, g], mask_hw) for g in idx]) if idx.size else np.zeros(
        (0, *mask_hw), dtype=bool
    )
    return idx, classes, masks


def match_and_loss(output: ModelOutput, clip: SpriteClip, t: int, cfg: RunConfig) -> LossReport:
    _, classes, masks = frame_ground_truth(clip, t, cfg.mask_hw)
    pred = output.to_prediction(frame_index=t)
    sim = similarity_matrix(pred, masks.astype(np.float64), classes)
    assignment = hungarian_assign(sim)
    return set_loss(output.class_probs, output.mask_logits, classes, masks, assignment, cfg.num_classes)


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path: str | Path, model: RCFModel, state: OptimState, iteration: int) -> None:
    blocks: dict[str, np.ndarray] = {}
    for name, p in model.params().items():
        blocks[f"param/{name}"] = p.data.astype("<f8")
        blocks[f"optim_m/{name}"] = state.m[name].astype("<f8")
        blocks[f"optim_v/{name}"] = state.v[name].astype("<f8")
    meta = {
        "kind": "checkpoint",
        "iteration": iteration,
        "optim_step": state.step,
        "config": model.cfg.to_dict(),
    }
    write_container(path, meta, blocks)


def load_checkpoint(path: str | Path) -> tuple[RCFModel, OptimState, int]:
    meta, blocks = read_container(path)
    if meta.get("kind") != "checkpoint":
        raise FormatError(f"container at {path} is not a checkpoint (kind={meta.get('kind')!r})")
    config = meta.get("config")
    if not isinstance(config, dict):
        raise FormatError(f"checkpoint at {path} has no config object")
    known = {f.name for f in fields(RunConfig)}
    for key in config:
        if key not in known:
            raise FormatError(f"checkpoint at {path} has unknown config key {key!r}")
    try:
        cfg = RunConfig(**config).validate()
    except (ConfigError, TypeError) as e:  # TypeError: e.g. a string where a range check wants a number
        raise FormatError(f"checkpoint at {path} has an invalid config: {e}") from e
    model = RCFModel(cfg)
    params = model.params()
    state = OptimState.create(params, cfg.lr0, model.param_groups())
    for key in ("optim_step", "iteration"):
        if not isinstance(meta.get(key), int):
            raise FormatError(f"checkpoint at {path} has no integer {key!r}")
    state.step = meta["optim_step"]
    for name, p in params.items():
        for prefix in ("param", "optim_m", "optim_v"):
            key = f"{prefix}/{name}"
            if key not in blocks:
                raise FormatError(f"checkpoint missing block {key!r}")
            if blocks[key].shape != p.data.shape:
                raise FormatError(f"checkpoint block {key!r} has shape {blocks[key].shape}, expected {p.data.shape}")
        p.data = blocks[f"param/{name}"].astype(np.float64)
        state.m[name] = blocks[f"optim_m/{name}"].astype(np.float64)
        state.v[name] = blocks[f"optim_v/{name}"].astype(np.float64)
    return model, state, meta["iteration"]


# ---------------------------------------------------------------------------
# training loop


def list_clip_dirs(split_dir: str | Path) -> list[Path]:
    split_dir = Path(split_dir)
    if not split_dir.is_dir():
        raise FormatError(f"dataset split directory not found: {split_dir}")
    clip_dirs = sorted(p for p in split_dir.iterdir() if (p / "manifest.json").is_file())
    if not clip_dirs:
        raise FormatError(f"no clips under dataset split directory {split_dir}")
    return clip_dirs


@dataclass
class TrainResult:
    iterations: int
    metrics_path: Path
    final_checkpoint: Path
    losses: list[float]


def sample_window(clip: SpriteClip, t: int, delta: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Reference frames t-delta..t-1 (frame 0 replicated at the clip start)
    and audio windows t-delta..t."""
    refs = [clip.frames[max(t - k, 0)] for k in range(delta, 0, -1)]
    windows = [clip.audio_window(max(t - k, 0)) for k in range(delta, -1, -1)]
    return refs, windows


def train_loop(cfg: RunConfig, data_dir: str | Path, out_dir: str | Path) -> TrainResult:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    clips = [read_clip(p) for p in list_clip_dirs(Path(data_dir) / "train")[: cfg.train_clips]]

    model = RCFModel(cfg)
    params = model.params()
    state = OptimState.create(params, cfg.lr0, model.param_groups())
    rng = np.random.default_rng([cfg.seed & 0xFFFFFFFF, zlib.crc32(b"train_loop")])

    metrics_path = out_dir / "metrics.csv"
    losses: list[float] = []
    with open(metrics_path, "w") as mf:
        mf.write("iteration,lr,total,ce,dice\n")
        for it in range(cfg.iter_max):
            lr = poly_lr(it, cfg.iter_max, cfg.lr0)
            clip = clips[int(rng.integers(len(clips)))]
            t = int(rng.integers(clip.num_frames))
            refs, windows = sample_window(clip, t, cfg.ref_frames)
            output = model.forward_frames(clip.frames[t], refs, windows if cfg.audio_enabled else None)
            report = match_and_loss(output, clip, t, cfg)
            if not np.isfinite(report.total):
                dump = {
                    "iteration": it,
                    "lr": lr,
                    "total": report.total,
                    "ce": report.ce,
                    "dice": report.dice,
                    "clip_seed": clip.seed,
                    "frame": t,
                }
                (out_dir / "abort_dump.json").write_text(json.dumps(dump, indent=1))
                raise NumericError(f"non-finite loss at iteration {it}; diagnostics in abort_dump.json")
            report.loss.backward()
            grads = {name: p.grad for name, p in params.items()}
            adamw_step(state, params, grads, lr)
            for p in params.values():
                p.grad = None
            losses.append(report.total)
            mf.write(f"{it},{lr!r},{report.total!r},{report.ce!r},{report.dice!r}\n")
            if (it + 1) % cfg.ckpt_every == 0:
                save_checkpoint(out_dir / f"ckpt_{it + 1:06d}", model, state, it + 1)
            if it % LOG_EVERY == 0:
                recent = np.mean(losses[-LOG_EVERY:])
                print(f"iter {it:6d}  lr {lr:.3e}  loss {recent:.4f}", flush=True)

    final = out_dir / "ckpt_final"
    save_checkpoint(final, model, state, cfg.iter_max)
    return TrainResult(iterations=cfg.iter_max, metrics_path=metrics_path, final_checkpoint=final, losses=losses)
