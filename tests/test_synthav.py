"""Clip generator: determinism, disjoint masks, audio-visual synchrony, IO."""

import numpy as np
import pytest

from rcfvis.audiodsp import FMAX_HZ, FMIN_HZ, N_MELS, SILENCE_FLOOR, hz_to_mel, log_mel, mel_to_hz
from rcfvis.errors import ArgumentError
from rcfvis.synthav import (
    GeneratorConfig,
    generate_clip,
    read_clip,
    tone_frequency,
    write_clip,
)


def small_cfg(**kw):
    base = dict(height=32, width=48, frames=8, min_sprites=2, max_sprites=3, noise=0.0)
    base.update(kw)
    return GeneratorConfig(**base)


def test_same_seed_bit_identical():
    a = generate_clip(11, small_cfg(noise=0.05))
    b = generate_clip(11, small_cfg(noise=0.05))
    assert np.array_equal(a.frames, b.frames)
    assert np.array_equal(a.waveform, b.waveform)
    assert np.array_equal(a.gt_masks, b.gt_masks)


def test_static_single_sprite_constant_masks_pure_tone():
    cfg = small_cfg(min_sprites=1, max_sprites=1, min_speed=0.0, max_speed=0.0)
    clip = generate_clip(3, cfg)
    for t in range(1, clip.num_frames):
        assert np.array_equal(clip.gt_masks[t], clip.gt_masks[0])
    assert clip.visibility.all()
    # pure tone at the class frequency: dominant rfft bin matches
    c = int(clip.gt_classes[0])
    spec = np.abs(np.fft.rfft(clip.waveform.astype(np.float64)))
    peak_hz = np.argmax(spec) * 16000 / len(clip.waveform)
    assert abs(peak_hz - tone_frequency(c)) < 4.0


def test_masks_pairwise_disjoint():
    clip = generate_clip(5, small_cfg(min_sprites=3, max_sprites=3, min_radius=8, max_radius=10))
    overlap = clip.gt_masks.astype(np.int64).sum(axis=1)
    assert overlap.max() <= 1


def test_identities_unique_and_stable():
    clip = generate_clip(9, small_cfg())
    ids = clip.gt_identities
    assert len(set(ids.tolist())) == len(ids)


def test_waveform_length_exact():
    cfg = small_cfg(fps_stream=8)
    clip = generate_clip(1, cfg)
    assert clip.samples_per_frame == 2000
    assert clip.waveform.shape[0] == cfg.frames * 2000


def _exit_seed_and_class(cfg):
    """Find a seed whose sprite leaves the canvas for >= 1 frame."""
    for seed in range(200):
        clip = generate_clip(seed, cfg)
        if not clip.visibility.all() and clip.visibility.any():
            return seed
    raise AssertionError("no exit event found in 200 seeds")


def test_offscreen_frames_silence_their_tone():
    cfg = GeneratorConfig(
        height=32, width=48, frames=24, min_sprites=1, max_sprites=1,
        min_speed=6.0, max_speed=8.0, min_radius=4.0, max_radius=5.0, noise=0.0,
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
    clip = generate_clip(21, small_cfg(noise=0.03))
    write_clip(clip, tmp_path / "clip")
    back = read_clip(tmp_path / "clip")
    assert np.array_equal(back.frames, clip.frames)
    assert np.array_equal(back.waveform, clip.waveform)
    assert np.array_equal(back.gt_masks, clip.gt_masks)
    assert np.array_equal(back.gt_classes, clip.gt_classes)
    assert np.array_equal(back.gt_identities, clip.gt_identities)
    assert np.array_equal(back.visibility, clip.visibility)
    assert back.fps_stream == clip.fps_stream and back.seed == clip.seed
    assert back.config == clip.config


def test_invalid_configs_rejected():
    with pytest.raises(ArgumentError):
        generate_clip(0, GeneratorConfig(frames=1))
    with pytest.raises(ArgumentError):
        GeneratorConfig(height=30).validate()
    with pytest.raises(ArgumentError):
        GeneratorConfig(min_sprites=0).validate()
    with pytest.raises(ArgumentError):
        GeneratorConfig(min_sprites=5, max_sprites=2).validate()


def test_frames_in_unit_range():
    clip = generate_clip(2, small_cfg(noise=0.2))
    assert clip.frames.min() >= 0.0 and clip.frames.max() <= 1.0
