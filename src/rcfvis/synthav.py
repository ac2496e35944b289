"""Deterministic synthetic audio-visual clips: moving sprites plus class tones.

Sprites (circle / square / triangle / cross; class = shape) move with
constant velocity and bounce inside an extended box, so a sprite may leave
the canvas entirely for a few frames and come back.  Each class emits a
sine tone at 300 + 400*c Hz with amplitude 0.3 exactly while at least one
instance of the class is visible.  Everything is a pure function of
(seed, RunConfig): the image size and the `gen_*` keys.

A clip is rendered a chunk of whole frames at a time, `_CHUNK_PIXELS`
pixels and at least one frame.  A scalar loop first records every
sprite's centre in every frame.  In each chunk, each sprite's stencil is
one (frames, H, W) broadcast of per-axis terms, and the sprites are
painted in stacking order into one reused uint8 label map.  The chunk's
masks are read off that label and run-length encoded, its noise is
drawn, and each channel's colours are looked up into one reused float64
buffer, get their noise, and are clipped and cast into the clip's
float32 frames.  Generation so holds the clip's frames plus one chunk,
and no dense mask of the whole clip: a clip holds its masks only as the
words `write_clip` stores, and `SpriteClip.masks(t)` decodes one frame's
planes.

A clip file holds four blocks: `frames`, `waveform`, `gt_classes` and
`gt_masks_rle`, the mask words of every plane back to back, frame-major.
Its meta holds `kind`, `clip_id`, `fps_stream`, `seed`, `num_instances`
and `mask_shape`.  `write_clip` writes a generated clip's own arrays as
they are, and takes no read clip.  `read_clip` validates the mask stream
without expanding it and reads each plane's visibility off it.  It checks
every frame and every audio sample, `_CHECK_BYTES` of them at a time, but
keeps neither frames nor waveform: a read clip's `frames` and `waveform`
are `StoredBlock`s that read frame t, or frame t's audio window, from its
tensors.bin, and check it again, when a caller indexes `frames[t]` or
calls `audio_window(t)`.
A generated clip, which has no file, keeps its frames and its waveform as
arrays.  The contract: every pixel goes through the float64 operations of
a per-(frame, sprite) renderer and the RNG draws come in the same order,
so the generated arrays and the written `tensors.bin` and `manifest.json`
are byte for byte those of that renderer and of a per-plane encoder
(`tests/test_synthav.py` pins their digests and keeps the per-frame
renderer as its oracle).
"""

from __future__ import annotations

import math
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
# pixels that `generate_clip` renders at once, in whole frames and at least
# one frame; 32 Ki pixels fill a 768 KiB float64 noise buffer
_CHUNK_PIXELS = 1 << 15
# bytes of frames and audio windows that `read_clip` reads at once to check
# them, whole frames and at least one
_CHECK_BYTES = 1 << 20

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


def _check_rows(path: str | Path, frames: StoredBlock, waveform: StoredBlock, start: int, stop: int) -> None:
    """Read frames [start, stop) of both blocks and check each frame's row
    with `_finite_row`, its frame before its audio window.  The rows die on
    return, so a caller looping over chunks holds one chunk at a time."""
    frame_rows = read_rows(path, frames.entry, start, stop)
    window_rows = read_rows(path, waveform.entry, start, stop)
    for t, frame, window in zip(range(start, stop), frame_rows, window_rows):
        _finite_row(path, t, "frames", frame)
        _finite_row(path, t, "waveform", window)


@dataclass
class SpriteClip:
    # (T,3,H,W) float32 in [0,1]: an array for a generated clip; for a read
    # clip a StoredBlock that reads one frame from disk per index
    frames: np.ndarray | StoredBlock
    # the T*G mask planes, frame-major, run-length encoded as `rle_encode_planes`
    # returns them, the stored block `gt_masks_rle` as it is: plane p (frame
    # p // G, sprite p % G) is its pair count and then its (value, run) pairs,
    # mask_words[mask_offsets[p] : mask_offsets[p + 1]]; each frame's planes
    # are pairwise disjoint
    mask_words: np.ndarray  # uint32
    mask_offsets: np.ndarray  # (T*G+1,) int64
    gt_classes: np.ndarray  # (G,) uint32; sprite g's identity is g
    # (T,G) bool, plane (t, g) has a pixel of 1: rendered with the masks for
    # a generated clip, read off the mask words for a read clip
    visibility: np.ndarray
    # (T, eta) float32 mono at SAMPLE_RATE, row t frame t's eta =
    # round(SAMPLE_RATE / fps_stream) samples: an array for a generated clip;
    # for a read clip a StoredBlock that reads one row from disk per index
    waveform: np.ndarray | StoredBlock
    fps_stream: int
    seed: int
    clip_id: str = ""

    @property
    def num_frames(self) -> int:
        return len(self.frames)

    @property
    def num_instances(self) -> int:
        return self.gt_classes.shape[0]

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


def _render(
    classes: np.ndarray,
    radii: np.ndarray,
    xs: np.ndarray,
    ys: np.ndarray,
    h: int,
    w: int,
    noise_std: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The clip's (T, 3, h, w) float32 frames, (T, G) visibility and mask
    words and offsets, for sprite centres xs, ys (each (T, G)), drawing the
    pixel noise from `rng`.

    A chunk of whole frames at a time, `_CHUNK_PIXELS` pixels and at least
    one frame: occlusion paints the sprites in index order, so each pixel
    of the uint8 label keeps its top sprite's label (g + 1; 0 is
    background), and the masks, their run-length words and the colours are
    read off it.  The chunk's noise is drawn for all three channels at once;
    each channel's colours then get their noise in float64 and are clipped
    and cast into their frames.  The chunk's buffers are freed on return.
    """
    t_frames, n = xs.shape
    palette = np.zeros((3, n + 1))
    palette[:, 1:] = np.asarray(CLASS_COLORS).T[:, classes]
    sprite_labels = np.arange(1, n + 1, dtype=np.uint8)[:, None, None]
    chunk = min(t_frames, max(1, _CHUNK_PIXELS // (h * w)))
    frames = np.empty((t_frames, 3, h, w), dtype=np.float32)
    visibility = np.empty((t_frames, n), dtype=bool)
    labels = np.empty((chunk, h, w), dtype=np.uint8)
    colours = np.empty((chunk, h, w))  # one channel at a time
    noises = np.zeros((chunk, 3, h, w))  # stays zero without noise
    words, plane_words = [], []
    for t0 in range(0, t_frames, chunk):
        t1 = min(t0 + chunk, t_frames)
        label, rgb, noise = labels[: t1 - t0], colours[: t1 - t0], noises[: t1 - t0]
        label.fill(0)
        for g in range(n):
            np.copyto(label, g + 1, where=_stencil(int(classes[g]), xs[t0:t1, g], ys[t0:t1, g], radii[g], h, w))
        masks = label[:, None] == sprite_labels  # pairwise disjoint
        visibility[t0:t1] = masks.any(axis=(2, 3))
        chunk_words, offsets = rle_encode_planes(masks.reshape(-1, h * w))
        words.append(chunk_words)
        plane_words.append(np.diff(offsets))
        if noise_std > 0:  # chunk by chunk, the draws of one whole-clip normal()
            rng.standard_normal(out=noise)
            noise *= noise_std
        for ch in range(3):
            np.take(palette[ch], label, out=rgb, mode="clip")
            rgb += noise[:, ch]
            np.clip(rgb, 0.0, 1.0, out=rgb)
            frames[t0:t1, ch] = rgb
    mask_offsets = np.zeros(t_frames * n + 1, dtype=np.int64)
    np.cumsum(np.concatenate(plane_words), out=mask_offsets[1:])
    return frames, visibility, np.concatenate(words), mask_offsets


def generate_clip(seed: int, cfg: RunConfig) -> SpriteClip:
    """Synthesize one clip from cfg's image size and `gen_*` keys;
    bit-identical for the same (seed, cfg).

    The frames are rendered a chunk at a time straight into the clip's
    float32 array; beyond it, generation holds one chunk's label map,
    masks, colours and noise (1.14x the frames at its peak for a 256x256,
    32-frame, 8-sprite clip).
    """
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

    frames, visibility, mask_words, mask_offsets = _render(classes, radii, xs, ys, h, w, cfg.gen_noise, rng)

    eta = round(SAMPLE_RATE / cfg.gen_fps)
    total = t_frames * eta
    sample_t = np.arange(total, dtype=np.float64) / SAMPLE_RATE
    waveform = np.zeros(total, dtype=np.float64)
    for c in range(len(CLASS_NAMES)):
        audible = np.repeat(visibility[:, classes == c].any(axis=1), eta)
        waveform[audible] += TONE_AMPLITUDE * np.sin(2.0 * np.pi * tone_frequency(c) * sample_t[audible])
    if cfg.gen_noise > 0:
        waveform += rng.normal(0.0, cfg.gen_noise, size=total)

    return SpriteClip(
        frames=frames,
        mask_words=mask_words,
        mask_offsets=mask_offsets,
        gt_classes=classes.astype(np.uint32),
        visibility=visibility,
        waveform=waveform.astype(np.float32).reshape(t_frames, eta),
        fps_stream=cfg.gen_fps,
        seed=seed,
        clip_id=f"clip-{seed:08d}",
    )


def write_clip(clip: SpriteClip, path: str | Path) -> None:
    """Persist a generated clip as manifest.json + tensors.bin: the blocks
    `frames`, `waveform`, `gt_classes` and `gt_masks_rle`, the clip's mask
    words, every plane back to back.  Its arrays are written as they are,
    without a copy.  A read clip, whose blocks stay in its own tensors.bin,
    raises ArgumentError.
    """
    if isinstance(clip.frames, StoredBlock) or isinstance(clip.waveform, StoredBlock):
        raise ArgumentError(f"write_clip takes a generated clip; {clip.clip_id!r} was read from disk")
    _, _, h, w = clip.frames.shape
    blocks = {
        "frames": np.asarray(clip.frames, "<f4"),
        "waveform": np.asarray(clip.waveform, "<f4").reshape(-1),
        "gt_classes": clip.gt_classes.astype("<u4"),
        "gt_masks_rle": clip.mask_words,
    }
    meta = {
        "kind": "clip",
        "clip_id": clip.clip_id,
        "fps_stream": clip.fps_stream,
        "seed": clip.seed,
        "num_instances": clip.num_instances,
        "mask_shape": [int(h), int(w)],
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
    "fps_stream": (lambda v: _is_int(v) and v > 0, "a positive integer"),
    "seed": (_is_int, "an integer"),
    "clip_id": (lambda v: isinstance(v, str), "a string"),
}


def _mask_words(words: np.ndarray, t_frames: int, g: int, h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """The `(mask_offsets, visibility)` of the clip's RLE stream `words`.

    The stream holds the T*G planes, frame-major, each its pair count and
    then its (value, run) pairs.  It is checked, not decoded: a stream that
    ends before or inside a plane or holds words after its last plane, a
    plane whose runs do not sum to h·w and a value word other than 0 or 1
    each raise FormatError.  Plane (t, g) is visible when it has a run of 1s
    of positive length.
    """
    offsets = [0]
    for p in range(t_frames * g):
        pos = offsets[-1]
        if pos >= words.size:
            raise FormatError(f"mask RLE stream ends before plane {p % g} of frame {p // g}")
        end = pos + 1 + 2 * int(words[pos])
        if end > words.size:
            raise FormatError(f"mask RLE stream ends inside plane {p % g} of frame {p // g}")
        offsets.append(end)
    if offsets[-1] != words.size:
        raise FormatError(f"mask RLE stream has {words.size - offsets[-1]} words after its last plane")
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
    return offsets, np.diff(shown[first_pair]).reshape(t_frames, g) > 0


def read_clip(path: str | Path) -> SpriteClip:
    """Read a clip written by `write_clip`.

    A missing or mistyped meta field, a missing block (a clip written with
    one `gt_masks_rle/NNN` block per frame has no block `gt_masks_rle`), a
    block whose shape or dtype disagrees with the meta or with `write_clip`
    (the waveform must hold frames × round(SAMPLE_RATE / fps_stream)
    samples, and at least one per frame, and the mask stream must be 1-D),
    a class id outside `CLASS_NAMES`, a non-finite frame value or audio
    sample and a malformed mask stream each raise FormatError naming the
    field or block.  The frames' and the waveform's dtype and shape are
    checked from their manifest entries, and their values are read and
    checked a chunk of frames at a time, `_CHECK_BYTES` bytes of both blocks
    and at least one frame, so the call holds one chunk beyond what the clip
    keeps.  The masks stay run-length encoded, and the visibility is read
    off them.  The frames and the waveform stay in tensors.bin: the clip
    holds a `StoredBlock` for each, which reads one frame, or one frame's
    audio window, per index and checks it as read_clip checked every value.
    """
    meta, entries = read_manifest(path)
    stored = {e["name"]: e for e in entries if e["name"] in ("frames", "waveform")}  # checked, not kept
    blocks = read_blocks(path, [e for e in entries if e["name"] not in stored])
    layout = {name: (a.shape, a.dtype) for name, a in blocks.items()}
    layout.update((name, (tuple(e["shape"]), np.dtype(e["dtype"]))) for name, e in stored.items())
    if meta.get("kind") != "clip":
        raise FormatError(f"container at {path} is not a clip (kind={meta.get('kind')!r})")
    for key, (ok, what) in _CLIP_META.items():
        if key not in meta:
            raise FormatError(f"clip at {path} has no meta field {key!r}")
        if not ok(meta[key]):
            raise FormatError(f"clip at {path} meta field {key!r} is not {what}: {meta[key]!r}")
    h, w = meta["mask_shape"]
    g = meta["num_instances"]
    frames_shape = layout["frames"][0] if "frames" in layout else ()  # a missing block is reported below
    t_frames = frames_shape[0] if len(frames_shape) == 4 else -1
    eta = round(SAMPLE_RATE / meta["fps_stream"])
    if eta == 0:
        raise FormatError(
            f"clip at {path} block 'waveform' cannot hold fps_stream {meta['fps_stream']}: 0 samples per frame"
        )
    expected = {  # block -> (shape, dtype); the mask stream may have any length
        "frames": ((t_frames, 3, h, w), "<f4"),
        "waveform": ((t_frames * eta,), "<f4"),
        "gt_classes": ((g,), "<u4"),
        "gt_masks_rle": (None, "<u4"),
    }
    for name, (shape, dtype) in expected.items():
        if name not in layout:
            raise FormatError(f"clip at {path} has no block {name!r}")
        got_shape, got_dtype = layout[name]
        if got_dtype != dtype:
            raise FormatError(f"clip at {path} block {name!r} has dtype {got_dtype}, expected {np.dtype(dtype)}")
        shape = shape or (math.prod(got_shape),)
        if got_shape != shape:
            raise FormatError(f"clip at {path} block {name!r} has shape {got_shape}, expected {shape}")
    bad = np.flatnonzero(blocks["gt_classes"] >= len(CLASS_NAMES))
    if bad.size:
        raise FormatError(
            f"clip at {path} block 'gt_classes' entry {bad[0]} is {blocks['gt_classes'][bad[0]]}, "
            f"expected a class id below {len(CLASS_NAMES)}"
        )
    frames = StoredBlock(Path(path), stored["frames"])
    waveform = StoredBlock(Path(path), {**stored["waveform"], "shape": [t_frames, eta]})
    rows = max(1, _CHECK_BYTES // (4 * (3 * h * w + eta)))  # frames per read, both blocks
    for start in range(0, t_frames, rows):
        _check_rows(path, frames, waveform, start, min(start + rows, t_frames))
    mask_offsets, visibility = _mask_words(blocks["gt_masks_rle"], t_frames, g, h, w)
    return SpriteClip(
        frames=frames,
        mask_words=blocks["gt_masks_rle"],
        mask_offsets=mask_offsets,
        gt_classes=blocks["gt_classes"],
        visibility=visibility,
        waveform=waveform,
        fps_stream=meta["fps_stream"],
        seed=meta["seed"],
        clip_id=meta["clip_id"],
    )
