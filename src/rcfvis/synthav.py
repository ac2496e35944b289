"""Deterministic synthetic audio-visual clips: moving sprites plus class tones.

Sprites (circle / square / triangle / cross; class = shape) move with
constant velocity and bounce inside an extended box, so a sprite may leave
the canvas entirely for a few frames and come back.  Each class emits a
sine tone at 300 + 400*c Hz with amplitude 0.3 exactly while at least one
instance of the class is visible.  Everything is a pure function of
(seed, RunConfig): the image size and the `gen_*` keys.

A clip is rendered whole.  A scalar loop only records every sprite's
centre in every frame; each sprite's stencil for all frames is then one
(T, H, W) broadcast of per-axis terms, the sprites are painted into one
per-pixel label array in stacking order, and the masks and the colour
channels are read off that label.  All mask planes of the clip are then
run-length encoded in one pass and the dense masks dropped: a clip holds
its masks only as the words `write_clip` stores, and `SpriteClip.masks(t)`
decodes one frame's planes.  `read_clip` validates every stream without
expanding it, and checks every frame and every audio sample, but keeps
neither frames nor waveform: a read clip's `frames` and `waveform` are
`StoredBlock`s that read frame t, or frame t's audio window, from its
tensors.bin, and check it again, when a caller indexes `frames[t]` or
calls `audio_window(t)`.  A generated clip, which has no file, keeps its
frames and its waveform as arrays.  The
contract: every pixel goes through the float64 operations of a
per-(frame, sprite) renderer and the RNG draws come in the same order, so
the generated arrays and the written `tensors.bin` and `manifest.json` are
byte for byte those of that renderer and of a per-plane encoder
(`tests/test_synthav.py` pins their digests and keeps the per-frame
renderer as its oracle).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import SAMPLE_RATE, RunConfig
from .container import read_blocks, read_manifest, read_rows, rle_decode, rle_encode_planes, write_container
from .errors import ArgumentError, FormatError

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
# a clip manifest's `generator_config` key -> the RunConfig key it records
GENERATOR_KEYS = {
    "height": "image_h",
    "width": "image_w",
    "frames": "gen_frames",
    "min_sprites": "gen_min_sprites",
    "max_sprites": "gen_max_sprites",
    "min_radius": "gen_min_radius",
    "max_radius": "gen_max_radius",
    "min_speed": "gen_min_speed",
    "max_speed": "gen_max_speed",
    "noise": "gen_noise",
    "fps_stream": "gen_fps",
}


def tone_frequency(class_id: int) -> float:
    return TONE_BASE_HZ + TONE_STEP_HZ * class_id


@dataclass(frozen=True)
class StoredBlock:
    """A read clip's float32 block, left in its tensors.bin, one row per
    frame: the (T, 3, H, W) frames, or the waveform read as (T, eta), one
    frame's audio window per row.

    `[t]` reads row t's bytes and nothing else, and checks them: a missing
    or short file and a non-finite value each raise FormatError naming the
    clip, the frame and the entry.
    """

    path: Path  # the clip's directory
    entry: dict  # the block's manifest entry, its shape frame-major

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(self.entry["shape"])

    def __len__(self) -> int:
        return self.entry["shape"][0]

    def __getitem__(self, t: int) -> np.ndarray:
        if not 0 <= t < len(self):
            raise IndexError(f"frame {t} outside clip of {len(self)} frames")
        try:
            row = read_rows(self.path, self.entry, t, t + 1)[0]
        except FormatError as e:
            raise FormatError(f"clip at {self.path} frame {t}: {e}") from e
        return _finite_row(self.path, t, self.entry["name"], row)


def _finite_row(path: str | Path, t: int, name: str, row: np.ndarray) -> np.ndarray:
    """`row`, frame t's row of block `name` of the clip at `path`, if all its
    values are finite; else FormatError."""
    finite = np.isfinite(row)
    if not finite.all():  # the common case costs no index search
        bad = np.flatnonzero(~finite)[0]
        value = row.reshape(-1)[bad]
        raise FormatError(f"clip at {path} frame {t}: block {name!r} entry {bad} is {value}, expected a finite value")
    return row


@dataclass
class SpriteClip:
    # (T,3,H,W) float32 in [0,1]: an array for a generated clip; for a read
    # clip a StoredBlock that reads one frame from disk per index
    frames: np.ndarray | StoredBlock
    # the T*G mask planes, frame-major, run-length encoded as `rle_encode_planes`
    # returns them: plane p (frame p // G, sprite p % G) is its pair count and
    # then its (value, run) pairs, mask_words[mask_offsets[p] : mask_offsets[p + 1]];
    # each frame's planes are pairwise disjoint
    mask_words: np.ndarray  # uint32
    mask_offsets: np.ndarray  # (T*G+1,) int64
    gt_classes: np.ndarray  # (G,) uint32
    gt_identities: np.ndarray  # (G,) uint32, unique within the clip
    visibility: np.ndarray  # (T,G) bool
    # (T, eta) float32 mono at SAMPLE_RATE, row t frame t's eta =
    # samples_per_frame samples: an array for a generated clip; for a read
    # clip a StoredBlock that reads one row from disk per index
    waveform: np.ndarray | StoredBlock
    fps_stream: int
    seed: int
    generator: dict  # the manifest's `generator_config` record (GENERATOR_KEYS)
    clip_id: str = ""

    @property
    def num_frames(self) -> int:
        return len(self.frames)

    @property
    def num_instances(self) -> int:
        return self.gt_classes.shape[0]

    @property
    def samples_per_frame(self) -> int:
        return round(SAMPLE_RATE / self.fps_stream)

    def audio_window(self, t: int) -> np.ndarray:
        """Frame t's eta samples of the waveform."""
        return self.waveform[t]

    def masks(self, t: int) -> np.ndarray:
        """Frame t's (G, H, W) uint8 masks, decoded from their run-length words."""
        g, (h, w) = self.num_instances, self.frames.shape[2:]
        bounds = self.mask_offsets[t * g : (t + 1) * g + 1]
        stream = self.mask_words[bounds[0] : bounds[-1]]
        runs = np.delete(stream, bounds[:-1] - bounds[0])  # drop each plane's pair count
        return rle_decode(runs, g * h * w).reshape(g, h, w)


def _stencil(shape_id: int, x: np.ndarray, y: np.ndarray, r: float, h: int, w: int) -> np.ndarray:
    """One sprite's (T, h, w) stencil for centres x, y (each (T,)).

    Every test is built from per-axis terms, a (T, w) row of column
    offsets and a (T, h) column of row offsets, broadcast against each
    other; each pixel sees the float64 operations of a per-frame mgrid.
    """
    cols = np.arange(w)
    rows = np.arange(h)
    dx = cols - x[:, None]
    dy = rows - y[:, None]
    if shape_id == 0:  # circle
        return (dx * dx)[:, None, :] + (dy * dy)[:, :, None] <= r * r
    if shape_id == 1:  # square
        s = 0.85 * r
        return (np.abs(dy) <= s)[:, :, None] & (np.abs(dx) <= s)[:, None, :]
    if shape_id == 2:  # triangle, apex up
        top = (x, y - r)
        left = (x - 0.866 * r, y + 0.5 * r)
        right = (x + 0.866 * r, y + 0.5 * r)
        m = np.ones((x.size, h, w), dtype=bool)
        for (x0, y0), (x1, y1) in ((top, left), (left, right), (right, top)):
            across = (cols - x0[:, None]) * (y1 - y0)[:, None]
            down = (rows - y0[:, None]) * (x1 - x0)[:, None]
            # a - b >= 0 exactly when a >= b: a float64 difference keeps its sign
            m &= across[:, None, :] >= down[:, :, None]
        return m
    if shape_id == 3:  # cross
        arm = 0.35 * r
        ax, ay = np.abs(dx), np.abs(dy)
        return ((ay <= r)[:, :, None] & (ax <= arm)[:, None, :]) | ((ay <= arm)[:, :, None] & (ax <= r)[:, None, :])
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


def generate_clip(seed: int, cfg: RunConfig) -> SpriteClip:
    """Synthesize one clip from cfg's image size and `gen_*` keys;
    bit-identical for the same (seed, cfg)."""
    cfg.validate()
    h, w, t_frames = cfg.image_h, cfg.image_w, cfg.gen_frames
    if 2 * cfg.gen_max_radius > min(h, w) - 1:
        raise ArgumentError(
            "gen_max_radius must be at most (min(image_h, image_w) - 1) / 2: each sprite starts inside the canvas"
        )
    rng = np.random.default_rng(seed)
    n = int(rng.integers(cfg.gen_min_sprites, cfg.gen_max_sprites + 1))

    classes = rng.integers(0, len(CLASS_NAMES), size=n)
    radii = rng.uniform(cfg.gen_min_radius, cfg.gen_max_radius, size=n)
    cx = rng.uniform(radii, w - 1 - radii)
    cy = rng.uniform(radii, h - 1 - radii)
    speed = rng.uniform(cfg.gen_min_speed, cfg.gen_max_speed, size=n)
    angle = rng.uniform(0.0, 2.0 * np.pi, size=n)
    vx = speed * np.cos(angle)
    vy = speed * np.sin(angle)

    # each sprite's centre in every frame; Python floats round as float64 does
    x, y, vx, vy, r = cx.tolist(), cy.tolist(), vx.tolist(), vy.tolist(), radii.tolist()
    xs, ys = np.empty((t_frames, n)), np.empty((t_frames, n))
    for t in range(t_frames):
        xs[t], ys[t] = x, y
        for g in range(n):
            # extended bounce box: a sprite may fully exit the canvas
            x[g], vx[g] = _bounce(x[g], vx[g], -2 * r[g], w - 1 + 2 * r[g])
            y[g], vy[g] = _bounce(y[g], vy[g], -2 * r[g], h - 1 + 2 * r[g])

    # occlusion: larger sprite index is on top, so painting in index order
    # leaves each pixel labelled with its top sprite (g + 1; 0 is background)
    label = np.zeros((t_frames, h, w), dtype=np.intp)
    for g in range(n):
        np.copyto(label, g + 1, where=_stencil(int(classes[g]), xs[:, g], ys[:, g], radii[g], h, w))
    gt_masks = label[:, None] == np.arange(1, n + 1)[:, None, None]  # pairwise disjoint
    visibility = gt_masks.any(axis=(2, 3))
    mask_words, mask_offsets = rle_encode_planes(gt_masks.reshape(t_frames * n, h * w))
    del gt_masks

    palette = np.zeros((3, n + 1))
    palette[:, 1:] = np.asarray(CLASS_COLORS).T[:, classes]
    frames = np.empty((t_frames, 3, h, w))
    for ch in range(3):
        np.take(palette[ch], label, out=frames[:, ch], mode="clip")
    if cfg.gen_noise > 0:
        frames += rng.normal(0.0, cfg.gen_noise, size=frames.shape)
    np.clip(frames, 0.0, 1.0, out=frames)

    eta = round(SAMPLE_RATE / cfg.gen_fps)
    total = t_frames * eta
    sample_t = np.arange(total, dtype=np.float64) / SAMPLE_RATE
    waveform = np.zeros(total, dtype=np.float64)
    for c in range(len(CLASS_NAMES)):
        class_visible = visibility[:, classes == c].any(axis=1)
        if not class_visible.any():
            continue
        gate = np.repeat(class_visible.astype(np.float64), eta)
        waveform += TONE_AMPLITUDE * np.sin(2.0 * np.pi * tone_frequency(c) * sample_t) * gate
    if cfg.gen_noise > 0:
        waveform += rng.normal(0.0, cfg.gen_noise, size=total)

    return SpriteClip(
        frames=frames.astype(np.float32),
        mask_words=mask_words,
        mask_offsets=mask_offsets,
        gt_classes=classes.astype(np.uint32),
        gt_identities=np.arange(n, dtype=np.uint32),
        visibility=visibility,
        waveform=waveform.astype(np.float32).reshape(t_frames, eta),
        fps_stream=cfg.gen_fps,
        seed=seed,
        generator={key: getattr(cfg, name) for key, name in GENERATOR_KEYS.items()},
        clip_id=f"clip-{seed:08d}",
    )


def write_clip(clip: SpriteClip, path: str | Path) -> None:
    """Persist a clip as manifest.json + tensors.bin (masks RLE per frame)."""
    t_frames, _, h, w = clip.frames.shape
    g, eta = clip.num_instances, clip.samples_per_frame
    frames = np.empty((t_frames, 3, h, w), "<f4")
    waveform = np.empty((t_frames, eta), "<f4")
    for t in range(t_frames):  # by index: a read clip's frames and waveform are on disk
        frames[t] = clip.frames[t]
        waveform[t] = clip.waveform[t]
    blocks: dict[str, np.ndarray] = {
        "frames": frames,
        "waveform": waveform.reshape(-1),
        "gt_classes": clip.gt_classes.astype("<u4"),
        "gt_identities": clip.gt_identities.astype("<u4"),
        "visibility": clip.visibility.astype("<u1"),
    }
    words, offsets = clip.mask_words, clip.mask_offsets
    for t in range(t_frames):
        blocks[f"gt_masks_rle/{t:03d}"] = words[offsets[t * g] : offsets[(t + 1) * g]]
    meta = {
        "kind": "clip",
        "clip_id": clip.clip_id,
        "class_vocab": list(CLASS_NAMES),
        "fps_stream": clip.fps_stream,
        "seed": clip.seed,
        "num_instances": int(g),
        "mask_shape": [int(h), int(w)],
        "generator_config": clip.generator,
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


def _mask_words(blocks: dict[str, np.ndarray], t_frames: int, g: int, h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """The clip's `(mask_words, mask_offsets)` from its per-frame RLE streams.

    Each frame's stream holds, per plane, its pair count and then its
    (value, run) pairs.  The streams are checked, not decoded: a stream
    that ends before or inside a plane or holds words after its last plane,
    a plane whose runs do not sum to h·w, a value word other than 0 or 1,
    and a `visibility` entry other than "the plane has a run of 1s of
    positive length" each raise FormatError.
    """
    streams, offsets = [], [0]
    for t in range(t_frames):
        stream = blocks[f"gt_masks_rle/{t:03d}"]
        pos = 0
        for k in range(g):
            if pos >= stream.size:
                raise FormatError(f"mask RLE stream for frame {t} ends before plane {k}")
            n_pairs = int(stream[pos])
            if stream.size - pos - 1 < 2 * n_pairs:
                raise FormatError(f"mask RLE stream for frame {t} ends inside plane {k}")
            pos += 1 + 2 * n_pairs
            offsets.append(offsets[-1] + 1 + 2 * n_pairs)
        if pos != stream.size:
            raise FormatError(f"mask RLE stream for frame {t} has {stream.size - pos} words after its last plane")
        streams.append(stream)
    words = np.concatenate([np.zeros(0, "<u4"), *streams])  # also when there are no planes
    offsets = np.asarray(offsets, dtype=np.int64)
    runs = np.delete(words, offsets[:-1])  # every plane's (value, run) pairs, back to back
    first_pair = (offsets - np.arange(offsets.size)) // 2  # of each plane, then the end
    covered = np.concatenate(([0], np.cumsum(runs[1::2], dtype=np.int64)))  # by the first i pairs
    sizes = np.diff(covered[first_pair])
    bad = np.flatnonzero(sizes != h * w)
    if bad.size:
        t, k = divmod(int(bad[0]), g)
        raise FormatError(f"mask RLE plane {k} of frame {t} decodes to {sizes[bad[0]]} elements, expected {h * w}")
    values = runs[0::2]
    bad = np.flatnonzero(values > 1)
    if bad.size:
        raise FormatError(f"RLE run {bad[0]} has value {values[bad[0]]}, expected 0 or 1")
    shown = np.concatenate(([0], np.cumsum((values == 1) & (runs[1::2] > 0))))  # 1-runs among the first i pairs
    visible = np.diff(shown[first_pair]).reshape(t_frames, g) > 0
    bad = np.flatnonzero(visible != blocks["visibility"])
    if bad.size:
        t, k = divmod(int(bad[0]), g)
        raise FormatError(
            f"block 'visibility' entry {bad[0]} is {int(not visible[t, k])}, "
            f"but mask plane {k} of frame {t} is {'non-empty' if visible[t, k] else 'empty'}"
        )
    return words, offsets


def read_clip(path: str | Path) -> SpriteClip:
    """Read a clip written by `write_clip`.

    A missing or mistyped meta field, a `generator_config` whose keys are
    not those of `GENERATOR_KEYS`, a missing block, a block whose shape
    or dtype disagrees with the meta or with `write_clip` (the waveform
    must hold frames × round(SAMPLE_RATE / fps_stream) samples, and at
    least one per frame, and a mask stream must be 1-D),
    a class id outside `CLASS_NAMES`, a visibility byte other than 0 or 1,
    a non-finite audio sample, a malformed mask stream and a visibility
    entry that disagrees with its mask plane each raise FormatError naming
    the field or block.  The masks stay run-length encoded, and the frames
    and the waveform stay in tensors.bin: the clip holds a `StoredBlock` for
    each, which reads one frame, or one frame's audio window, per index and
    checks it as read_clip checked every value.
    """
    meta, entries = read_manifest(path)
    blocks = read_blocks(path, entries)
    if meta.get("kind") != "clip":
        raise FormatError(f"container at {path} is not a clip (kind={meta.get('kind')!r})")
    for key, (ok, what) in _CLIP_META.items():
        if key not in meta:
            raise FormatError(f"clip at {path} has no meta field {key!r}")
        if not ok(meta[key]):
            raise FormatError(f"clip at {path} meta field {key!r} is not {what}: {meta[key]!r}")
    h, w = meta["mask_shape"]
    g = meta["num_instances"]
    generator = meta["generator_config"]
    if generator.keys() != GENERATOR_KEYS.keys():
        missing, unknown = GENERATOR_KEYS.keys() - generator.keys(), generator.keys() - GENERATOR_KEYS.keys()
        raise FormatError(
            f"clip at {path} meta field 'generator_config' is invalid: missing {sorted(missing)}, unknown {sorted(unknown)}"
        )
    frames = blocks.get("frames")  # its absence is reported with the other blocks'
    t_frames = frames.shape[0] if frames is not None and frames.ndim == 4 else -1
    eta = round(SAMPLE_RATE / meta["fps_stream"])
    if eta == 0:
        raise FormatError(
            f"clip at {path} block 'waveform' cannot hold fps_stream {meta['fps_stream']}: 0 samples per frame"
        )
    expected = {  # block -> (shape, dtype); a mask stream may have any length
        "frames": ((t_frames, 3, h, w), "<f4"),
        "waveform": ((t_frames * eta,), "<f4"),
        "gt_classes": ((g,), "<u4"),
        "gt_identities": ((g,), "<u4"),
        "visibility": ((t_frames, g), "<u1"),
        **{f"gt_masks_rle/{t:03d}": (None, "<u4") for t in range(t_frames)},
    }
    for name, (shape, dtype) in expected.items():
        if name not in blocks:
            raise FormatError(f"clip at {path} has no block {name!r}")
        block = blocks[name]
        if block.dtype != dtype:
            raise FormatError(f"clip at {path} block {name!r} has dtype {block.dtype}, expected {np.dtype(dtype)}")
        shape = shape or (block.size,)
        if block.shape != shape:
            raise FormatError(f"clip at {path} block {name!r} has shape {block.shape}, expected {shape}")
    for name, ok, what in (
        ("gt_classes", lambda v: np.isin(v, range(len(CLASS_NAMES))), f"a class id below {len(CLASS_NAMES)}"),
        ("visibility", lambda v: np.isin(v, (0, 1)), "0 or 1"),
    ):
        valid = ok(blocks[name])
        if not valid.all():
            bad = np.flatnonzero(~valid)[0]
            value = blocks[name].reshape(-1)[bad]
            raise FormatError(f"clip at {path} block {name!r} entry {bad} is {value}, expected {what}")
    waveform = blocks["waveform"].reshape(t_frames, eta)
    for t in range(t_frames):
        _finite_row(path, t, "frames", frames[t])
        _finite_row(path, t, "waveform", waveform[t])
    mask_words, mask_offsets = _mask_words(blocks, t_frames, g, h, w)
    stored = {e["name"]: e for e in entries if e["name"] in ("frames", "waveform")}
    return SpriteClip(
        frames=StoredBlock(Path(path), stored["frames"]),
        mask_words=mask_words,
        mask_offsets=mask_offsets,
        gt_classes=blocks["gt_classes"],
        gt_identities=blocks["gt_identities"],
        visibility=blocks["visibility"].astype(bool),
        waveform=StoredBlock(Path(path), {**stored["waveform"], "shape": [t_frames, eta]}),
        fps_stream=meta["fps_stream"],
        seed=meta["seed"],
        generator=generator,
        clip_id=meta["clip_id"],
    )
