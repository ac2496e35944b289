"""Command-line entry point.

Subcommands: gen-data, train, eval, infer, bench-latency, dump-attention.
Configuration comes from an optional key=value file (--config) overridden
by repeated --set key=value flags; --seed sets the seed last.  A command
given --ckpt takes the checkpoint's config instead.  eval writes one
metric,value row each for AP, AP50, AP75, AR@1, AR@10 and the mean
identity-switch rate (switch_rate); `eval --split probe` measures order
stability on the probe split's clips (see `generator_config`).
Exit codes: 0 success, 2 bad config/usage, 3 IO or format failure, 4
numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from .config import RunConfig, config_help_lines, load_config
from .container import rle_encode, write_container
from .errors import ArgumentError, ConfigError, FormatError, NumericError
from .fusion import export_diagnostics
from .model import RCFModel
from .stream import stream_clip
from .synthav import generate_clip, read_clip, write_clip
from .tensor import no_grad
from .training import list_clip_dirs, load_checkpoint, sample_window, train_loop
from .viseval import evaluate_model_on_clips, pred_tracks

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

SPLIT_OFFSETS = {"train": 0, "val": 1_000_000, "probe": 2_000_000}


def _load_cfg(args) -> RunConfig:
    overrides = list(args.set or [])
    if getattr(args, "seed", None) is not None:
        overrides.append(f"seed={args.seed}")
    return load_config(getattr(args, "config", None), overrides)


def _load_model(args) -> RCFModel:
    """The --ckpt model, else a fresh one from the config flags."""
    if not args.ckpt:
        return RCFModel(_load_cfg(args))
    for flag, value in (("--config", args.config), ("--set", args.set), ("--seed", args.seed)):
        if value is not None:
            raise ConfigError(f"{flag} cannot be combined with --ckpt, which carries its own config")
    return load_checkpoint(args.ckpt)


def generator_config(cfg: RunConfig, split: str) -> RunConfig:
    """The config that `generate_clip` renders a split's clips from: cfg
    itself, except that probe clips move at `probe_speed_scale` times the
    speeds and carry `probe_noise`, the motion under which `eval --split
    probe` counts identity switches."""
    if split != "probe":
        return cfg
    return dataclasses.replace(
        cfg,
        gen_min_speed=cfg.gen_min_speed * cfg.probe_speed_scale,
        gen_max_speed=cfg.gen_max_speed * cfg.probe_speed_scale,
        gen_noise=cfg.probe_noise,
    )


def clip_seed(base_seed: int, split: str, index: int) -> int:
    return base_seed * 10_000_000 + SPLIT_OFFSETS[split] + index


def cmd_gen_data(args) -> int:
    cfg = _load_cfg(args)
    out = Path(args.out)
    counts = {"train": cfg.train_clips, "val": cfg.val_clips, "probe": cfg.probe_clips}
    listing = {}
    for split, count in counts.items():
        gen = generator_config(cfg, split)
        listing[split] = [f"clip_{i:05d}" for i in range(count)]
        for i, name in enumerate(listing[split]):
            write_clip(generate_clip(clip_seed(cfg.seed, split, i), gen), out / split / name)
        print(f"wrote {count} clips to {out / split}")
    (out / "corpus.json").write_text(
        json.dumps({"config": cfg.to_dict(), "splits": listing}, indent=1, sort_keys=True)
    )
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _load_cfg(args)
    result = train_loop(cfg, args.data, args.out)
    print(f"trained {result.iterations} iterations; final loss {result.losses[-1]:.4f}")
    print(f"metrics: {result.metrics_path}")
    print(f"checkpoint: {result.final_checkpoint}")
    return EXIT_OK


def cmd_eval(args) -> int:
    model = load_checkpoint(args.ckpt)
    clip_dirs = list_clip_dirs(Path(args.data) / args.split)
    clips = [read_clip(p) for p in clip_dirs]
    rows = evaluate_model_on_clips(model, clips)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["metric", "value"])
            for k, v in rows.items():
                writer.writerow([k, f"{v:.6f}"])
    for k, v in rows.items():
        print(f"{k}={v:.4f}")
    return EXIT_OK


def cmd_infer(args) -> int:
    """Stream one clip and dump its tracks, assembled from the streamed predictions:
    each identity's class and per-frame scores, and its masks at image resolution."""
    model = load_checkpoint(args.ckpt)
    clip = read_clip(args.clip)
    preds, _ = stream_clip(model, clip)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    tracks = []
    mask_blocks: dict[str, np.ndarray] = {}
    for track in pred_tracks(preds):
        tracks.append(
            {
                "identity": track.identity,
                "class": track.class_id,
                "frames": [{"t": t, "score": round(score, 6)} for t, score in track.frame_scores.items()],
            }
        )
        for t, mask in track.masks.items():
            mask_blocks[f"mask/{track.identity}/{t:03d}"] = rle_encode(mask)
    manifest = {
        "format_version": 1,
        "video": clip.clip_id,
        "mask_shape": [clip.frames.shape[2], clip.frames.shape[3]],
        "tracks": tracks,
    }
    (out / "prediction.json").write_text(json.dumps(manifest, indent=1, sort_keys=True))
    write_container(
        out / "masks",
        {"kind": "prediction-masks", "video": clip.clip_id, "mask_shape": manifest["mask_shape"]},
        mask_blocks,
    )
    fired_total = sum(int(p.fired.sum()) for p in preds)
    print(f"streamed {clip.num_frames} frames; {len(tracks)} tracks, {fired_total} fired slots")
    print(f"prediction dump: {out}")
    return EXIT_OK


def latency_model(fps_stream: float, fps_model: float, n_f: int = 1) -> tuple[float, float]:
    """(online, offline) per-frame latency in seconds.

    Online waits for one frame to stream and one model pass; offline waits
    for the whole clip to stream and process.
    """
    if not (0 < fps_stream < math.inf and 0 < fps_model < math.inf) or n_f <= 0:
        raise ArgumentError("latency model needs strictly positive, finite inputs")
    online = 1.0 / fps_stream + 1.0 / fps_model
    return online, online * n_f


def cmd_bench_latency(args) -> int:
    online, offline = latency_model(args.fps_stream, args.fps_model, args.clip)
    print(f"online latency: {online:.3f} s")
    print(f"offline latency ({args.clip} frames): {offline:.2f} s")
    return EXIT_OK


def cmd_dump_attention(args) -> int:
    model = _load_model(args)
    clip = read_clip(args.clip)
    t = args.frame if args.frame is not None else clip.num_frames - 1
    if not 0 <= t < clip.num_frames:
        raise ArgumentError(f"frame {t} outside clip of {clip.num_frames} frames")
    refs, windows = sample_window(clip, t, model.cfg.ref_frames)
    with no_grad():
        feats = [model.audio_feature(w) for w in windows] if model.cfg.audio_enabled else None
        target = model.extract(clip.frames[t])
        tokens = model.build_tokens(target, [model.extract(f).f for f in refs], feats)
        diag = model.encoder.attention_maps(tokens, model.token_layout(*target.f.shape[1:]))
    written = export_diagnostics(diag, args.out)
    mass = diag.segment_mass()
    print(f"wrote {len(written)} files to {args.out}")
    print(f"reference->target attention mass: {mass[1, 0]:.4f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    epilog = "configuration keys (config file or --set key=value):\n" + "\n".join(config_help_lines())
    parser = argparse.ArgumentParser(
        prog="rcfvis",
        description="online video instance segmentation on synthetic audio-visual clips",
        epilog=epilog,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="key=value config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE", help="config override (repeatable)")
        p.add_argument("--seed", type=int, default=None, help="seed override")

    p = sub.add_parser("gen-data", help="synthesize the clip corpus (train/val/probe splits)")
    common(p)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("train", help="train on a generated corpus")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="VIS scores and identity-switch rate for a checkpoint on a split")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="val")
    p.add_argument("--out", default=None, help="CSV output path")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("infer", help="stream one clip and dump predictions")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--clip", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_infer)

    p = sub.add_parser("bench-latency", help="latency table from FPS figures")
    p.add_argument("--fps-stream", type=float, required=True)
    p.add_argument("--fps-model", type=float, required=True)
    p.add_argument("--clip", type=int, default=36, help="clip length for the offline case")
    p.set_defaults(fn=cmd_bench_latency)

    p = sub.add_parser("dump-attention", help="attention maps as PGM plus segment-mass CSV")
    common(p)
    p.add_argument("--ckpt", default=None)
    p.add_argument("--clip", required=True)
    p.add_argument("--frame", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_dump_attention)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ArgumentError) as e:
        print(f'rcfvis: error code=2 kind=config msg="{e}"', file=sys.stderr)
        return EXIT_CONFIG
    except (FormatError, OSError) as e:
        print(f'rcfvis: error code=3 kind=io msg="{e}"', file=sys.stderr)
        return EXIT_IO
    except NumericError as e:
        print(f'rcfvis: error code=4 kind=numeric msg="{e}"', file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
