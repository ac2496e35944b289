"""Deterministic synthetic audio-visual clips: moving sprites plus class tones.

Sprites (circle / square / triangle / cross; class = shape) move with
constant velocity and bounce inside an extended box, so a sprite may leave
the canvas entirely for a few frames and come back.  Each class emits a
sine tone at 300 + 400*c Hz with amplitude 0.3 exactly while at least one
instance of the class is visible.  Everything is a pure function of
(seed, config).
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from .container import read_container, rle_decode, rle_encode, write_container
from .errors import ArgumentError, FormatError

AUDIO_RATE = 16_000
TONE_BASE_HZ = 300.0
TONE_STEP_HZ = 400.0
TONE_AMPLITUDE = 0.3
CLASS_NAMES = ("circle", "square", "triangle", "cross")
CLASS_COLORS = (
    (0.90, 0.25, 0.25),
    (0.25, 0.90, 0.25),
    (0.25, 0.35, 0.90),
    (0.90, 0.85, 0.25),
)
BACKBONE_STRIDE = 8


def tone_frequency(class_id: int) -> float:
    return TONE_BASE_HZ + TONE_STEP_HZ * class_id


@dataclass
class GeneratorConfig:
    height: int = 64
    width: int = 96
    frames: int = 16
    min_sprites: int = 2
    max_sprites: int = 4
    min_radius: float = 6.0
    max_radius: float = 12.0
    min_speed: float = 1.0
    max_speed: float = 3.0
    noise: float = 0.02
    fps_stream: int = 8

    def validate(self) -> None:
        if not 1 <= self.min_sprites <= self.max_sprites <= 8:
            raise ArgumentError("sprite count must satisfy 1 <= min <= max <= 8")
        if self.frames < 2:
            raise ArgumentError("need at least 2 frames")
        if self.height % BACKBONE_STRIDE or self.width % BACKBONE_STRIDE:
            raise ArgumentError(f"image extents must be multiples of {BACKBONE_STRIDE}")
        if not 0 < self.min_radius <= self.max_radius:
            raise ArgumentError("invalid sprite radius range")
        if not 0 <= self.min_speed <= self.max_speed:
            raise ArgumentError("invalid speed range")
        if self.noise < 0:
            raise ArgumentError("noise must be nonnegative")
        if self.fps_stream <= 0:
            raise ArgumentError("fps_stream must be positive")

    @property
    def samples_per_frame(self) -> int:
        return round(AUDIO_RATE / self.fps_stream)


@dataclass
class SpriteClip:
    frames: np.ndarray  # (T,3,H,W) float32 in [0,1]
    gt_masks: np.ndarray  # (T,G,H,W) uint8, pairwise disjoint per frame
    gt_classes: np.ndarray  # (G,) uint32
    gt_identities: np.ndarray  # (G,) uint32, unique within the clip
    visibility: np.ndarray  # (T,G) bool
    waveform: np.ndarray  # (T*eta,) float32 mono at 16 kHz
    fps_stream: int
    seed: int
    config: GeneratorConfig = field(default_factory=GeneratorConfig)
    clip_id: str = ""

    @property
    def num_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def num_instances(self) -> int:
        return self.gt_masks.shape[1]

    @property
    def samples_per_frame(self) -> int:
        return round(AUDIO_RATE / self.fps_stream)

    def audio_window(self, t: int) -> np.ndarray:
        eta = self.samples_per_frame
        return self.waveform[t * eta : (t + 1) * eta]


def _sprite_stencil(shape_id: int, cx: float, cy: float, r: float, h: int, w: int) -> np.ndarray:
    yy, xx = np.mgrid[0:h, 0:w]
    dx = xx - cx
    dy = yy - cy
    if shape_id == 0:  # circle
        return dx * dx + dy * dy <= r * r
    if shape_id == 1:  # square
        s = 0.85 * r
        return (np.abs(dx) <= s) & (np.abs(dy) <= s)
    if shape_id == 2:  # triangle, apex up
        top = (cx, cy - r)
        left = (cx - 0.866 * r, cy + 0.5 * r)
        right = (cx + 0.866 * r, cy + 0.5 * r)
        m = np.ones((h, w), dtype=bool)
        for (x0, y0), (x1, y1) in ((top, left), (left, right), (right, top)):
            m &= (xx - x0) * (y1 - y0) - (yy - y0) * (x1 - x0) >= 0
        return m
    if shape_id == 3:  # cross
        arm = 0.35 * r
        return ((np.abs(dx) <= arm) & (np.abs(dy) <= r)) | ((np.abs(dy) <= arm) & (np.abs(dx) <= r))
    raise ArgumentError(f"unknown shape id {shape_id}")


def _bounce(pos: float, vel: float, lo: float, hi: float) -> tuple[float, float]:
    pos += vel
    while pos < lo or pos > hi:
        if pos < lo:
            pos = 2 * lo - pos
        else:
            pos = 2 * hi - pos
        vel = -vel
    return pos, vel


def generate_clip(seed: int, cfg: GeneratorConfig | None = None) -> SpriteClip:
    """Synthesize one clip; bit-identical for the same (seed, cfg)."""
    cfg = cfg or GeneratorConfig()
    cfg.validate()
    rng = np.random.default_rng(seed)
    h, w, t_frames = cfg.height, cfg.width, cfg.frames
    n = int(rng.integers(cfg.min_sprites, cfg.max_sprites + 1))

    classes = rng.integers(0, len(CLASS_NAMES), size=n)
    radii = rng.uniform(cfg.min_radius, cfg.max_radius, size=n)
    cx = rng.uniform(radii, w - 1 - radii)
    cy = rng.uniform(radii, h - 1 - radii)
    speed = rng.uniform(cfg.min_speed, cfg.max_speed, size=n)
    angle = rng.uniform(0.0, 2.0 * np.pi, size=n)
    vx = speed * np.cos(angle)
    vy = speed * np.sin(angle)

    stencils = np.zeros((t_frames, n, h, w), dtype=bool)
    for t in range(t_frames):
        for g in range(n):
            stencils[t, g] = _sprite_stencil(int(classes[g]), cx[g], cy[g], radii[g], h, w)
        for g in range(n):
            # extended bounce box: a sprite may fully exit the canvas
            cx[g], vx[g] = _bounce(cx[g], vx[g], -2 * radii[g], w - 1 + 2 * radii[g])
            cy[g], vy[g] = _bounce(cy[g], vy[g], -2 * radii[g], h - 1 + 2 * radii[g])

    # occlusion: larger sprite index is on top; gt masks are pairwise disjoint
    gt_masks = np.zeros_like(stencils)
    for g in range(n):
        covered = np.zeros((t_frames, h, w), dtype=bool)
        for above in range(g + 1, n):
            covered |= stencils[:, above]
        gt_masks[:, g] = stencils[:, g] & ~covered
    visibility = gt_masks.any(axis=(2, 3))

    frames = np.zeros((t_frames, 3, h, w), dtype=np.float64)
    for g in range(n):
        color = CLASS_COLORS[int(classes[g])]
        for ch in range(3):
            frames[:, ch][gt_masks[:, g]] = color[ch]
    if cfg.noise > 0:
        frames += rng.normal(0.0, cfg.noise, size=frames.shape)
    frames = np.clip(frames, 0.0, 1.0)

    eta = cfg.samples_per_frame
    total = t_frames * eta
    sample_t = np.arange(total, dtype=np.float64) / AUDIO_RATE
    waveform = np.zeros(total, dtype=np.float64)
    for c in range(len(CLASS_NAMES)):
        class_visible = visibility[:, classes == c].any(axis=1)
        if not class_visible.any():
            continue
        gate = np.repeat(class_visible.astype(np.float64), eta)
        waveform += TONE_AMPLITUDE * np.sin(2.0 * np.pi * tone_frequency(c) * sample_t) * gate
    if cfg.noise > 0:
        waveform += rng.normal(0.0, cfg.noise, size=total)

    return SpriteClip(
        frames=frames.astype(np.float32),
        gt_masks=gt_masks.astype(np.uint8),
        gt_classes=classes.astype(np.uint32),
        gt_identities=np.arange(n, dtype=np.uint32),
        visibility=visibility,
        waveform=waveform.astype(np.float32),
        fps_stream=cfg.fps_stream,
        seed=seed,
        config=cfg,
        clip_id=f"clip-{seed:08d}",
    )


def write_clip(clip: SpriteClip, path: str | Path) -> None:
    """Persist a clip as manifest.json + tensors.bin (masks RLE per frame)."""
    t_frames, g = clip.gt_masks.shape[:2]
    blocks: dict[str, np.ndarray] = {
        "frames": clip.frames.astype("<f4"),
        "waveform": clip.waveform.astype("<f4"),
        "gt_classes": clip.gt_classes.astype("<u4"),
        "gt_identities": clip.gt_identities.astype("<u4"),
        "visibility": clip.visibility.astype("<u1"),
    }
    for t in range(t_frames):
        per_frame = []
        for k in range(g):
            runs = rle_encode(clip.gt_masks[t, k])
            per_frame.append(np.asarray([runs.size // 2], dtype="<u4"))
            per_frame.append(runs)
        blocks[f"gt_masks_rle/{t:03d}"] = np.concatenate(per_frame) if per_frame else np.zeros(0, "<u4")
    meta = {
        "kind": "clip",
        "clip_id": clip.clip_id,
        "class_vocab": list(CLASS_NAMES),
        "fps_stream": clip.fps_stream,
        "seed": clip.seed,
        "num_instances": int(g),
        "mask_shape": [int(clip.gt_masks.shape[2]), int(clip.gt_masks.shape[3])],
        "generator_config": asdict(clip.config),
    }
    write_container(path, meta, blocks)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# meta field -> (check, what the field must be)
_CLIP_META = {
    "mask_shape": (
        lambda v: isinstance(v, list) and len(v) == 2 and all(_is_int(n) and n > 0 for n in v),
        "a list of two positive integers",
    ),
    "num_instances": (lambda v: _is_int(v) and v >= 0, "a non-negative integer"),
    "generator_config": (lambda v: isinstance(v, dict), "an object"),
    "fps_stream": (lambda v: _is_int(v) and v > 0, "a positive integer"),
    "seed": (_is_int, "an integer"),
    "clip_id": (lambda v: isinstance(v, str), "a string"),
}


def _decode_masks(blocks: dict[str, np.ndarray], t_frames: int, g: int, h: int, w: int) -> np.ndarray:
    """All (t_frames, g, h, w) mask planes from the per-frame RLE streams.

    Each frame's stream holds, per plane, its pair count and then its
    (value, run) pairs.  The runs of every plane are gathered and decoded
    in one `rle_decode` call, after one check that each plane's runs sum
    to h·w; a stream that ends early or a plane of another size raises
    FormatError.
    """
    runs, pairs = [], []  # per plane: its words, and how many pairs it has
    for t in range(t_frames):
        stream = blocks[f"gt_masks_rle/{t:03d}"]
        pos = 0
        for k in range(g):
            if pos >= stream.size:
                raise FormatError(f"mask RLE stream for frame {t} ends before plane {k}")
            n_pairs = int(stream[pos])
            words = stream[pos + 1 : pos + 1 + 2 * n_pairs]
            if words.size != 2 * n_pairs:
                raise FormatError(f"mask RLE stream for frame {t} ends inside plane {k}")
            runs.append(words)
            pairs.append(n_pairs)
            pos += 1 + 2 * n_pairs
    runs = np.concatenate([np.zeros(0, "<u4"), *runs])  # also when there are no planes
    covered = np.concatenate(([0], np.cumsum(runs[1::2], dtype=np.int64)))  # by the first i pairs
    sizes = np.diff(covered[np.cumsum([0] + pairs)])
    bad = np.flatnonzero(sizes != h * w)
    if bad.size:
        t, k = divmod(int(bad[0]), g)
        raise FormatError(f"mask RLE plane {k} of frame {t} decodes to {sizes[bad[0]]} elements, expected {h * w}")
    return rle_decode(runs, t_frames * g * h * w).reshape(t_frames, g, h, w)


def read_clip(path: str | Path) -> SpriteClip:
    """Read a clip written by `write_clip`.

    A missing or mistyped meta field, a missing block and a block whose
    shape disagrees with the meta each raise FormatError naming the field or
    block.
    """
    meta, blocks = read_container(path)
    if meta.get("kind") != "clip":
        raise FormatError(f"container at {path} is not a clip (kind={meta.get('kind')!r})")
    for key, (ok, what) in _CLIP_META.items():
        if key not in meta:
            raise FormatError(f"clip at {path} has no meta field {key!r}")
        if not ok(meta[key]):
            raise FormatError(f"clip at {path} meta field {key!r} is not {what}: {meta[key]!r}")
    h, w = meta["mask_shape"]
    g = meta["num_instances"]
    try:
        cfg = GeneratorConfig(**meta["generator_config"])
    except TypeError as e:  # an unknown or missing generator key
        raise FormatError(f"clip at {path} meta field 'generator_config' is invalid: {e}") from e
    if "frames" not in blocks:
        raise FormatError(f"clip at {path} has no block 'frames'")
    t_frames = blocks["frames"].shape[0] if blocks["frames"].ndim == 4 else -1
    expected = {
        "frames": (t_frames, 3, h, w),
        "waveform": None,
        "gt_classes": (g,),
        "gt_identities": (g,),
        "visibility": (t_frames, g),
        **{f"gt_masks_rle/{t:03d}": None for t in range(t_frames)},
    }
    for name, shape in expected.items():
        if name not in blocks:
            raise FormatError(f"clip at {path} has no block {name!r}")
        if shape is not None and blocks[name].shape != shape:
            raise FormatError(f"clip at {path} block {name!r} has shape {blocks[name].shape}, expected {shape}")
    return SpriteClip(
        frames=blocks["frames"],
        gt_masks=_decode_masks(blocks, t_frames, g, h, w),
        gt_classes=blocks["gt_classes"],
        gt_identities=blocks["gt_identities"],
        visibility=blocks["visibility"].astype(bool),
        waveform=blocks["waveform"],
        fps_stream=meta["fps_stream"],
        seed=meta["seed"],
        config=cfg,
        clip_id=meta["clip_id"],
    )
