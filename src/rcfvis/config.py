"""Run configuration: flat key=value files, validated against one declaration.

The `RunConfig` dataclass is the registry: each field declares a key once,
with its default, and its metadata carries the valid-range text and the
check.  The kind (int, float, bool or str) is the type of the default.
Unknown keys are rejected.  The CLI builds its --help from these fields and
accepts the same keys as overrides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, asdict
from pathlib import Path

from .errors import ConfigError


def _choice(*opts):
    return lambda v: v in opts


def _range(lo, hi, lo_open=False):
    def check(v):
        return (v > lo if lo_open else v >= lo) and v <= hi

    return check


def _key(default, valid: str, check):
    """A config key: its default, its valid-range text and its check."""
    return field(default=default, metadata={"valid": valid, "check": check})


def _kind(f) -> str:
    return type(f.default).__name__


@dataclass
class RunConfig:
    # model
    backbone_channels: int = _key(32, "multiple of 4 in [8, 128]", lambda v: 8 <= v <= 128 and v % 4 == 0)
    token_dim: int = _key(64, "multiple of 8 in [16, 512]", lambda v: 16 <= v <= 512 and v % 8 == 0)
    code_dim: int = _key(64, "[8, 512]", _range(8, 512))
    seg_channels: int = _key(16, "[2, 128]", _range(2, 128))
    ref_token_k: int = _key(2, "one of 1, 2, 4, 8", _choice(1, 2, 4, 8))
    ref_frames: int = _key(1, "[0, 5]", _range(0, 5))
    num_slots: int = _key(10, "[1, 64]", _range(1, 64))
    enc_depth: int = _key(3, "[1, 8]", _range(1, 8))
    dec_depth: int = _key(3, "[1, 8]", _range(1, 8))
    heads: int = _key(8, "[1, 16]", _range(1, 16))
    audio_enabled: bool = _key(True, "true or false", lambda v: isinstance(v, bool))
    audio_dim: int = _key(128, "[8, 4096]", _range(8, 4096))
    lstm_hidden: int = _key(32, "[4, 512]", _range(4, 512))
    num_classes: int = _key(4, "[1, 16]", _range(1, 16))
    image_h: int = _key(64, "multiple of 8 in [16, 512]", lambda v: 16 <= v <= 512 and v % 8 == 0)
    image_w: int = _key(96, "multiple of 8 in [16, 512]", lambda v: 16 <= v <= 512 and v % 8 == 0)
    # training
    lr0: float = _key(6e-4, "(0, 1]", _range(0, 1, lo_open=True))
    iter_max: int = _key(1000, "[1, 10000000]", _range(1, 10_000_000))
    weight_decay: float = _key(1e-4, "[0, 1]", _range(0, 1))
    backbone_lr_mult: float = _key(0.1, "(0, 10]", _range(0, 10, lo_open=True))
    seed: int = _key(0, "[0, 2^31)", _range(0, 2**31 - 1))
    ckpt_every: int = _key(200, "[1, 10000000]", _range(1, 10_000_000))
    train_clips: int = _key(64, "[1, 100000]", _range(1, 100_000))
    val_clips: int = _key(16, "[1, 100000]", _range(1, 100_000))
    probe_clips: int = _key(32, "[1, 100000]", _range(1, 100_000))
    # generator
    gen_frames: int = _key(16, "[2, 512]", _range(2, 512))
    gen_min_sprites: int = _key(2, "[1, 8]", _range(1, 8))
    gen_max_sprites: int = _key(4, "[1, 8]", _range(1, 8))
    gen_noise: float = _key(0.02, "[0, 1]", _range(0, 1))
    gen_fps: int = _key(8, "[1, 64]", _range(1, 64))
    gen_min_speed: float = _key(1.0, "[0, 32]", _range(0, 32))
    gen_max_speed: float = _key(3.0, "[0, 32]", _range(0, 32))
    gen_min_radius: float = _key(6.0, "(0, 64]", _range(0, 64, lo_open=True))
    gen_max_radius: float = _key(12.0, "(0, 64]", _range(0, 64, lo_open=True))
    probe_speed_scale: float = _key(0.25, "(0, 1]", _range(0, 1, lo_open=True))
    probe_noise: float = _key(0.0, "[0, 1]", _range(0, 1))
    # thresholds / runtime
    mask_threshold: float = _key(0.5, "[0, 1]", _range(0, 1))
    class_threshold: float = _key(0.4, "[0, 1]", _range(0, 1))
    track_max_gap: int = _key(5, "[0, 1000]", _range(0, 1000))
    iou_override: bool = _key(True, "true or false", lambda v: isinstance(v, bool))
    probe_norm_p: str = _key("1", "1, 2 or inf", _choice("1", "2", "inf"))

    def validate(self) -> "RunConfig":
        for f in fields(self):
            value = getattr(self, f.name)
            if not f.metadata["check"](value):
                raise ConfigError(f"config key {f.name}={value!r} outside valid range ({f.metadata['valid']})")
        if self.token_dim % self.heads:
            raise ConfigError("token_dim must be divisible by heads")
        if self.gen_min_sprites > self.gen_max_sprites:
            raise ConfigError("gen_min_sprites must not exceed gen_max_sprites")
        if self.gen_min_speed > self.gen_max_speed:
            raise ConfigError("gen_min_speed must not exceed gen_max_speed")
        if self.gen_min_radius > self.gen_max_radius:
            raise ConfigError("gen_min_radius must not exceed gen_max_radius")
        fh, fw = self.image_h // 8, self.image_w // 8
        if self.ref_frames >= 1 and (fh % self.ref_token_k or fw % self.ref_token_k):
            raise ConfigError(
                f"feature grid {fh}x{fw} must divide the reference token grid {self.ref_token_k}"
            )
        return self

    def to_dict(self) -> dict:
        return asdict(self)

    @property
    def feature_hw(self) -> tuple[int, int]:
        return self.image_h // 8, self.image_w // 8

    @property
    def mask_hw(self) -> tuple[int, int]:
        return self.image_h // 2, self.image_w // 2


def _parse_value(f, raw: str):
    raw = raw.strip()
    kind = _kind(f)
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            v = float(raw)
            if math.isnan(v):
                raise ValueError("nan")
            return v
        if kind == "bool":
            low = raw.lower()
            if low in ("true", "1", "yes", "on"):
                return True
            if low in ("false", "0", "no", "off"):
                return False
            raise ValueError(raw)
        return raw
    except ValueError as e:
        raise ConfigError(f"config key {f.name}: cannot parse {raw!r} as {kind}") from e


def apply_assignments(cfg: RunConfig, items: list[tuple[str, str]]) -> RunConfig:
    by_name = {f.name: f for f in fields(RunConfig)}
    for key, raw in items:
        if key not in by_name:
            raise ConfigError(f"unknown config key {key!r}")
        setattr(cfg, key, _parse_value(by_name[key], raw))
    return cfg


def load_config(path: str | Path | None = None, overrides: list[str] | None = None) -> RunConfig:
    """Build a RunConfig from an optional key=value file plus override strings."""
    cfg = RunConfig()
    items: list[tuple[str, str]] = []
    if path is not None:
        p = Path(path)
        if not p.is_file():
            raise ConfigError(f"config file not found: {p}")
        for ln, line in enumerate(p.read_text(encoding="utf-8").splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{p}:{ln}: expected key=value, got {line!r}")
            key, raw = line.split("=", 1)
            items.append((key.strip(), raw))
    for ov in overrides or []:
        if "=" not in ov:
            raise ConfigError(f"override must be key=value, got {ov!r}")
        key, raw = ov.split("=", 1)
        items.append((key.strip(), raw))
    apply_assignments(cfg, items)
    return cfg.validate()


def config_help_lines() -> list[str]:
    return [f"  {f.name} = {f.default}  ({_kind(f)}; {f.metadata['valid']})" for f in fields(RunConfig)]
