"""Clip generator: determinism, disjoint masks, audio-visual synchrony, IO."""

import hashlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from rcfvis.audiodsp import FMAX_HZ, FMIN_HZ, N_MELS, SILENCE_FLOOR, hz_to_mel, log_mel, mel_to_hz
from rcfvis.config import SAMPLE_RATE, RunConfig
from rcfvis.container import rle_encode, rle_encode_planes
from rcfvis.errors import ArgumentError, ConfigError
from rcfvis.synthav import (
    CLASS_COLORS,
    CLASS_NAMES,
    TONE_AMPLITUDE,
    _bounce,
    generate_clip,
    read_clip,
    tone_frequency,
    write_clip,
)


def all_masks(clip):
    """The clip's (T, G, H, W) masks, decoded one frame at a time."""
    return np.stack([clip.masks(t) for t in range(clip.num_frames)])


def small_cfg(**kw):
    base = dict(image_h=32, image_w=48, gen_frames=8, gen_min_sprites=2, gen_max_sprites=3, gen_noise=0.0)
    base.update(kw)
    return RunConfig(**base)


def test_same_seed_bit_identical():
    a = generate_clip(11, small_cfg(gen_noise=0.05))
    b = generate_clip(11, small_cfg(gen_noise=0.05))
    assert np.array_equal(a.frames, b.frames)
    assert np.array_equal(a.waveform, b.waveform)
    assert np.array_equal(all_masks(a), all_masks(b))


def test_static_single_sprite_constant_masks_pure_tone():
    cfg = small_cfg(gen_min_sprites=1, gen_max_sprites=1, gen_min_speed=0.0, gen_max_speed=0.0)
    clip = generate_clip(3, cfg)
    for t in range(1, clip.num_frames):
        assert np.array_equal(clip.masks(t), clip.masks(0))
    assert clip.visibility.all()
    # pure tone at the class frequency: dominant rfft bin matches
    c = int(clip.gt_classes[0])
    spec = np.abs(np.fft.rfft(clip.waveform.astype(np.float64)))
    peak_hz = np.argmax(spec) * 16000 / len(clip.waveform)
    assert abs(peak_hz - tone_frequency(c)) < 4.0


def test_masks_pairwise_disjoint():
    clip = generate_clip(5, small_cfg(gen_min_sprites=3, gen_max_sprites=3, gen_min_radius=8, gen_max_radius=10))
    overlap = all_masks(clip).astype(np.int64).sum(axis=1)
    assert overlap.max() <= 1


def test_identities_unique_and_stable():
    clip = generate_clip(9, small_cfg())
    ids = clip.gt_identities
    assert len(set(ids.tolist())) == len(ids)


def test_waveform_length_exact():
    cfg = small_cfg(gen_fps=8)
    clip = generate_clip(1, cfg)
    assert clip.samples_per_frame == 2000
    assert clip.waveform.shape[0] == cfg.gen_frames * 2000


def _exit_seed_and_class(cfg):
    """Find a seed whose sprite leaves the canvas for >= 1 frame."""
    for seed in range(200):
        clip = generate_clip(seed, cfg)
        if not clip.visibility.all() and clip.visibility.any():
            return seed
    raise AssertionError("no exit event found in 200 seeds")


def test_offscreen_frames_silence_their_tone():
    cfg = RunConfig(
        image_h=32, image_w=48, gen_frames=24, gen_min_sprites=1, gen_max_sprites=1,
        gen_min_speed=6.0, gen_max_speed=8.0, gen_min_radius=4.0, gen_max_radius=5.0, gen_noise=0.0,
    )
    seed = _exit_seed_and_class(cfg)
    clip = generate_clip(seed, cfg)
    c = int(clip.gt_classes[0])
    centers = mel_to_hz(np.linspace(hz_to_mel(FMIN_HZ), hz_to_mel(FMAX_HZ), N_MELS + 2))[1:-1]
    bin_idx = int(np.argmin(np.abs(centers - tone_frequency(c))))
    for t in range(clip.num_frames):
        spec = log_mel(clip.audio_window(t).astype(np.float64))
        energy = spec[:, bin_idx].max()
        if clip.visibility[t, 0]:
            assert energy > SILENCE_FLOOR + 1.0
        else:
            assert energy <= SILENCE_FLOOR + 1e-9


def test_clip_roundtrip_bit_exact(tmp_path):
    clip = generate_clip(21, small_cfg(gen_noise=0.03))
    write_clip(clip, tmp_path / "clip")
    back = read_clip(tmp_path / "clip")
    assert np.array_equal(back.frames, clip.frames)
    assert np.array_equal(back.waveform, clip.waveform)
    assert np.array_equal(all_masks(back), all_masks(clip))
    assert np.array_equal(back.gt_classes, clip.gt_classes)
    assert np.array_equal(back.gt_identities, clip.gt_identities)
    assert np.array_equal(back.visibility, clip.visibility)
    assert back.fps_stream == clip.fps_stream and back.seed == clip.seed
    assert back.generator == clip.generator


def test_read_clip_retains_only_the_stored_blocks(tmp_path):
    # the frames stay on disk: keeping them would add their 1,152 KiB, and
    # dense masks T*G*H*W bytes, here 768 KiB; the bound allows 16 KiB over
    # the stored blocks other than the frames.  The blocks go from the file
    # straight into their arrays, so the peak stays below a second copy of
    # the file: the bound allows 512 KiB over tensors.bin
    cfg = RunConfig(gen_frames=16, gen_min_sprites=8, gen_max_sprites=8)
    write_clip(generate_clip(0, cfg), tmp_path / "clip")
    read_clip(tmp_path / "clip")  # the first call settles one-time allocations
    tracemalloc.start()
    try:
        clip = read_clip(tmp_path / "clip")
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert clip.num_instances == 8 and clip.frames.shape == (16, 3, 64, 96)
    frames_bytes = 16 * 3 * 64 * 96 * 4
    file_bytes = (tmp_path / "clip" / "tensors.bin").stat().st_size
    assert retained <= file_bytes - frames_bytes + 16 * 1024
    assert peak <= file_bytes + 512 * 1024


def test_invalid_configs_rejected():
    with pytest.raises(ConfigError):
        generate_clip(0, RunConfig(gen_frames=1))
    with pytest.raises(ConfigError):
        generate_clip(0, RunConfig(image_h=30))
    with pytest.raises(ConfigError):
        generate_clip(0, RunConfig(gen_min_sprites=0))
    with pytest.raises(ConfigError):
        generate_clip(0, RunConfig(gen_min_sprites=5, gen_max_sprites=2))
    with pytest.raises(ArgumentError, match="max_radius must be at most"):
        generate_clip(0, RunConfig(image_h=16, image_w=16, gen_min_radius=7.0, gen_max_radius=7.6))
    generate_clip(0, RunConfig(image_h=16, image_w=16, gen_min_radius=7.0, gen_max_radius=7.5))


def test_frames_in_unit_range():
    clip = generate_clip(2, small_cfg(gen_noise=0.2))
    assert clip.frames.min() >= 0.0 and clip.frames.max() <= 1.0


# ---------------------------------------------------------------------------
# whole-clip rendering against the per-(frame, sprite) renderer it replaced

CONFIGS = {
    "default": RunConfig(),
    "crowded": RunConfig(gen_min_sprites=4, gen_max_sprites=8),
    "hires": RunConfig(image_h=128, image_w=192, gen_min_sprites=4, gen_max_sprites=8),
    "static": RunConfig(gen_min_sprites=1, gen_max_sprites=1, gen_min_speed=0.0, gen_max_speed=0.0, gen_noise=0.0),
    "oversized": RunConfig(image_h=16, image_w=16, gen_min_radius=7.0, gen_max_radius=7.5),
    "two_frames": RunConfig(gen_frames=2),
}

# blake2b of tensors.bin then manifest.json as `write_clip(generate_clip(seed, cfg))`
# writes them, computed with the per-(frame, sprite) renderer and per-plane encoder
WRITTEN_DIGESTS = {
    "default": {
        0: "6593f0337a2b365133d814f008ca16f3",
        1: "fa4745e601750e700c2bce347f0addcf",
        7: "06ca3f3200c29ada40cde00f63572364",
        12345: "dde54749eddc602f55f7917605f5751b",
    },
    "crowded": {
        0: "d09271a605722099b76c5dfb35a0a00c",
        1: "c6fbcfb9f7f384ea2baea5783555dc7b",
        7: "fdb341bff29c81cd1432c160b3f32b9a",
        12345: "6ffa76ae14ad99038581a6f38e8df5d4",
    },
    "hires": {
        0: "1902c2236016a278a1e975a1f52856af",
        1: "a4a58248b263d29dd5423d46d9941c71",
        7: "b194f0abd52ade42ff98e13fc1067e35",
        12345: "2b3087f4e66b5d4f16c78b2046f22055",
    },
    "static": {
        0: "93f53c3dfd4ed235dd4260cd5a52c83d",
        1: "764f686f876f319fd3b8099455d5f8b7",
        7: "e9abb2f26d12e917af7d18b3d82219a9",
        12345: "57487453563aa29761b0bc10d6ecc20b",
    },
    "oversized": {
        0: "9a7ae52f7e6d8bc43bdd74bc0978fb75",
        1: "ff575ba59e15f6fc0f6f9895119177f9",
        7: "7c4018c051316404a1d1b6dbaa3b6ff5",
        12345: "e60ce611c69d6f7923e718eaff0b81c9",
    },
    "two_frames": {
        0: "d8b8f57f7216a0842589225ba0ece448",
        1: "7d9d53ee1baa46c3a9389d953f5fbdea",
        7: "6edb2798cdf04ea44a66913d3347f0a8",
        12345: "0288efde2fe838963d8088902953a03e",
    },
}


def _oracle_stencil(shape_id, cx, cy, r, h, w):
    yy, xx = np.mgrid[0:h, 0:w]
    dx = xx - cx
    dy = yy - cy
    if shape_id == 0:
        return dx * dx + dy * dy <= r * r
    if shape_id == 1:
        s = 0.85 * r
        return (np.abs(dx) <= s) & (np.abs(dy) <= s)
    if shape_id == 2:
        top = (cx, cy - r)
        left = (cx - 0.866 * r, cy + 0.5 * r)
        right = (cx + 0.866 * r, cy + 0.5 * r)
        m = np.ones((h, w), dtype=bool)
        for (x0, y0), (x1, y1) in ((top, left), (left, right), (right, top)):
            m &= (xx - x0) * (y1 - y0) - (yy - y0) * (x1 - x0) >= 0
        return m
    arm = 0.35 * r
    return ((np.abs(dx) <= arm) & (np.abs(dy) <= r)) | ((np.abs(dy) <= arm) & (np.abs(dx) <= r))


def oracle_clip(seed, cfg):
    """The per-(frame, sprite) renderer: (frames, gt_masks, visibility, waveform, classes)."""
    rng = np.random.default_rng(seed)
    h, w, t_frames = cfg.image_h, cfg.image_w, cfg.gen_frames
    n = int(rng.integers(cfg.gen_min_sprites, cfg.gen_max_sprites + 1))
    classes = rng.integers(0, len(CLASS_NAMES), size=n)
    radii = rng.uniform(cfg.gen_min_radius, cfg.gen_max_radius, size=n)
    cx = rng.uniform(radii, w - 1 - radii)
    cy = rng.uniform(radii, h - 1 - radii)
    speed = rng.uniform(cfg.gen_min_speed, cfg.gen_max_speed, size=n)
    angle = rng.uniform(0.0, 2.0 * np.pi, size=n)
    vx = speed * np.cos(angle)
    vy = speed * np.sin(angle)
    stencils = np.zeros((t_frames, n, h, w), dtype=bool)
    for t in range(t_frames):
        for g in range(n):
            stencils[t, g] = _oracle_stencil(int(classes[g]), cx[g], cy[g], radii[g], h, w)
        for g in range(n):
            cx[g], vx[g] = _bounce(cx[g], vx[g], -2 * radii[g], w - 1 + 2 * radii[g])
            cy[g], vy[g] = _bounce(cy[g], vy[g], -2 * radii[g], h - 1 + 2 * radii[g])
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
    if cfg.gen_noise > 0:
        frames += rng.normal(0.0, cfg.gen_noise, size=frames.shape)
    frames = np.clip(frames, 0.0, 1.0)
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
    return frames.astype(np.float32), gt_masks.astype(np.uint8), visibility, waveform.astype(np.float32), classes


def written_digest(clip, path):
    write_clip(clip, path)
    h = hashlib.blake2b(digest_size=16)
    for name in ("tensors.bin", "manifest.json"):
        h.update((path / name).read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", CONFIGS)
def test_written_clips_match_pinned_digests_and_read_back(name, tmp_path):
    for seed, want in WRITTEN_DIGESTS[name].items():
        clip = generate_clip(seed, CONFIGS[name])
        assert written_digest(clip, tmp_path / f"clip_{seed}") == want, seed
        back = read_clip(tmp_path / f"clip_{seed}")
        for field in ("frames", "waveform", "mask_words", "mask_offsets", "gt_classes", "gt_identities", "visibility"):
            assert np.array_equal(getattr(back, field), getattr(clip, field)), (seed, field)
        assert back.generator == clip.generator and back.clip_id == clip.clip_id


@pytest.mark.parametrize("name", CONFIGS)
def test_whole_clip_rendering_matches_per_frame_oracle(name):
    cfg = CONFIGS[name]
    shapes = set()
    for seed in range(50):
        clip = generate_clip(seed, cfg)
        frames, gt_masks, visibility, waveform, classes = oracle_clip(seed, cfg)
        assert np.array_equal(clip.gt_classes, classes), seed
        for got, want in ((clip.frames, frames), (all_masks(clip), gt_masks), (clip.visibility, visibility), (clip.waveform, waveform)):
            assert got.dtype == want.dtype and got.shape == want.shape, seed
            assert got.tobytes() == want.tobytes(), seed
        shapes.update(classes.tolist())
    assert shapes == set(range(len(CLASS_NAMES)))


@pytest.mark.parametrize("name", CONFIGS)
def test_masks_decode_one_frame_like_the_oracle(name, tmp_path):
    cfg = CONFIGS[name]
    for seed in (0, 1):
        clip = generate_clip(seed, cfg)
        write_clip(clip, tmp_path / f"clip_{seed}")
        back = read_clip(tmp_path / f"clip_{seed}")
        want = oracle_clip(seed, cfg)[1]
        for t in range(cfg.gen_frames):
            for got in (clip.masks(t), back.masks(t)):
                assert got.dtype == want.dtype and got.shape == want[t].shape, (seed, t)
                assert got.tobytes() == want[t].tobytes(), (seed, t)


@pytest.mark.parametrize("name", CONFIGS)
def test_read_frames_are_the_written_frames(name, tmp_path):
    clip = generate_clip(0, CONFIGS[name])
    write_clip(clip, tmp_path / "clip")
    back = read_clip(tmp_path / "clip")
    assert back.frames.shape == clip.frames.shape and len(back.frames) == back.num_frames == clip.num_frames
    for t in range(clip.num_frames):
        got = back.frames[t]
        assert got.dtype == np.float32 and got.shape == clip.frames[t].shape, t
        assert got.tobytes() == clip.frames[t].tobytes(), t
    with pytest.raises(IndexError):
        back.frames[clip.num_frames]
    write_clip(back, tmp_path / "again")  # a read clip writes back the same files
    for file in ("tensors.bin", "manifest.json"):
        assert (tmp_path / "again" / file).read_bytes() == (tmp_path / "clip" / file).read_bytes(), file


def test_a_clip_without_instances_decodes_empty_frames(tmp_path):
    clip = generate_clip(0, small_cfg(gen_frames=3))
    empty = replace(
        clip,
        mask_words=np.zeros(0, "<u4"),
        mask_offsets=np.zeros(1, np.int64),
        gt_classes=np.zeros(0, np.uint32),
        gt_identities=np.zeros(0, np.uint32),
        visibility=np.zeros((3, 0), bool),
    )
    write_clip(empty, tmp_path / "clip")
    back = read_clip(tmp_path / "clip")
    assert back.num_instances == 0
    for got in (empty, back):
        for t in range(3):
            masks = got.masks(t)
            assert masks.shape == (0, 32, 48) and masks.dtype == np.uint8


def oracle_rle(plane):
    """The per-plane encoder: (value, run) uint32 pairs of a flat binary array."""
    flat = np.asarray(plane).reshape(-1).astype(np.uint32)
    if flat.size == 0:
        return np.zeros(0, dtype="<u4")
    change = np.flatnonzero(np.diff(flat)) + 1
    starts = np.concatenate(([0], change))
    ends = np.concatenate((change, [flat.size]))
    pairs = np.empty((starts.size, 2), dtype="<u4")
    pairs[:, 0] = flat[starts]
    pairs[:, 1] = ends - starts
    return pairs.reshape(-1)


def _plane_loop(planes):
    """Per-plane words [n_pairs, v0, r0, ...] from a loop over the per-plane encoder."""
    out = []
    for plane in planes:
        runs = oracle_rle(plane)
        assert np.array_equal(rle_encode(plane), runs)  # the one-plane case
        out.append(np.concatenate(([runs.size // 2], runs)).astype("<u4"))
    return out


def _split_words(words, offsets):
    return [words[a:b] for a, b in zip(offsets[:-1], offsets[1:])]


def _check_stacked_encoder(planes):
    words, offsets = rle_encode_planes(planes)
    assert words.dtype == np.dtype("<u4") and offsets.shape == (planes.shape[0] + 1,)
    want = _plane_loop(planes)
    got = _split_words(words, offsets)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def test_stacked_encoder_matches_per_plane_loop_on_edge_planes():
    n = 24
    planes = np.stack([
        np.zeros(n, np.uint8),
        np.ones(n, np.uint8),
        np.arange(n, dtype=np.uint8) % 2,
        1 - np.arange(n, dtype=np.uint8) % 2,
        np.eye(1, n, 0, dtype=np.uint8)[0],
        np.eye(1, n, n - 1, dtype=np.uint8)[0],
        np.eye(1, n, 7, dtype=np.uint8)[0],
        1 - np.eye(1, n, 7, dtype=np.uint8)[0],
    ])
    _check_stacked_encoder(planes)
    for k in range(len(planes)):  # each plane alone, and each neighbouring pair
        _check_stacked_encoder(planes[k : k + 1])
        _check_stacked_encoder(planes[k : k + 2])
    _check_stacked_encoder(np.ones((1, 1), np.uint8))
    _check_stacked_encoder(np.zeros((3, 0), np.uint8))
    _check_stacked_encoder(np.zeros((0, n), np.uint8))


def test_stacked_encoder_matches_per_plane_loop_on_generated_planes():
    for seed, cfg in ((0, CONFIGS["crowded"]), (1, CONFIGS["oversized"]), (2, CONFIGS["static"])):
        masks = all_masks(generate_clip(seed, cfg))
        _check_stacked_encoder(masks.reshape(masks.shape[0] * masks.shape[1], -1))
