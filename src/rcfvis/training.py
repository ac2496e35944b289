"""Set-based supervision and the training loop.

Per frame: Hungarian-match ground truths to slots on the similarity matrix,
then minimize cross-entropy over all slots (unmatched slots are pushed to
the no-object class) plus Dice loss on the matched masks.  AdamW with the
poly LR schedule; reference features are recomputed with current weights
each iteration (no cache during training).

`train_loop` reads every training clip once, but a read clip keeps its
frames in its tensors.bin: an iteration reads from disk only its target
frame and its reference frames, and decodes only the target's masks.  A
non-finite loss or gradient stops the run before the optimizer step, with
`abort_dump.json` beside the metrics.
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
from .model import RCFModel, reference_indices
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
    return idx, classes, shrink_mask(clip.masks(t)[idx], mask_hw)


def match_and_loss(class_probs: Tensor, mask_logits: Tensor, clip: SpriteClip, t: int, cfg: RunConfig) -> LossReport:
    _, classes, masks = frame_ground_truth(clip, t, cfg.mask_hw)
    sim = similarity_matrix(class_probs.data, mask_logits.data, masks.astype(np.float64), classes)
    assignment = hungarian_assign(sim)
    return set_loss(class_probs, mask_logits, classes, masks, assignment, cfg.num_classes)


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path: str | Path, model: RCFModel, state: OptimState, iteration: int) -> None:
    blocks: dict[str, np.ndarray] = {}
    for name, p in model.params().items():
        blocks[f"param/{name}"] = p.data
        blocks[f"optim_m/{name}"] = state.m[name]
        blocks[f"optim_v/{name}"] = state.v[name]
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
    state = OptimState.create(params, model.param_groups())
    for key in ("optim_step", "iteration"):
        if type(meta.get(key)) is not int or meta[key] < 0:  # a bool is an int, but no count
            raise FormatError(f"checkpoint at {path} has no non-negative integer {key!r}: {meta.get(key)!r}")
    state.step = meta["optim_step"]
    for name, p in params.items():
        # in place: the model's parameters and the moments are views of the
        # arrays that adamw_step updates
        for prefix, dest in (("param", p.data), ("optim_m", state.m[name]), ("optim_v", state.v[name])):
            key = f"{prefix}/{name}"
            if key not in blocks:
                raise FormatError(f"checkpoint missing block {key!r}")
            block = blocks[key]
            if block.shape != dest.shape or block.dtype != dest.dtype:
                raise FormatError(f"checkpoint block {key!r} is {block.dtype} {block.shape}, not {dest.dtype} {dest.shape}")
            finite = np.isfinite(block)
            if not finite.all():
                bad = np.flatnonzero(~finite)[0]
                value = block.reshape(-1)[bad]
                raise FormatError(f"checkpoint block {key!r} entry {bad} is {value}, expected a finite value")
            dest[...] = block
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
    """The reference frames of frame t (`reference_indices`) and the audio
    windows of those frames and of t."""
    indices = reference_indices(t, delta)
    return [clip.frames[i] for i in indices], [clip.audio_window(i) for i in indices + [t]]


def train_loop(cfg: RunConfig, data_dir: str | Path, out_dir: str | Path) -> TrainResult:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = list_clip_dirs(Path(data_dir) / "train")[: cfg.train_clips]
    clips = [read_clip(p) for p in paths]
    for path, clip in zip(paths, clips):
        if clip.gt_classes.size and clip.gt_classes.max() >= cfg.num_classes:
            raise ConfigError(
                f"num_classes={cfg.num_classes} cannot score class id {clip.gt_classes.max()} of clip {path}"
            )
        visible = int(clip.visibility.sum(axis=1).max(initial=0))
        if visible > cfg.num_slots:
            raise ConfigError(
                f"num_slots={cfg.num_slots} cannot match {visible} sprites visible in one frame of clip {path}"
            )

    model = RCFModel(cfg)
    params = model.params()
    state = OptimState.create(params, model.param_groups())
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
            probs, masks = model.forward_frames(clip.frames[t], refs, windows if cfg.audio_enabled else None)
            report = match_and_loss(probs, masks, clip, t, cfg)
            failed = None if np.isfinite(report.total) else "loss"
            if failed is None:
                state.zero_grads(params)
                report.loss.backward()
                # checked before the step, which would spread one NaN to every parameter
                failed = None if all(np.isfinite(flat.grad).all() for flat in state.flat) else "gradient"
            if failed is not None:
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
                raise NumericError(f"non-finite {failed} at iteration {it}; diagnostics in abort_dump.json")
            adamw_step(state, params, {name: p.grad for name, p in params.items()}, lr)
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
