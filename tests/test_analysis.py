"""Latency arithmetic, and the identity switches that `eval` counts on streamed clips."""

from dataclasses import replace

import numpy as np
import pytest

from rcfvis.cli import latency_model
from rcfvis.config import RunConfig
from rcfvis.container import rle_encode_planes
from rcfvis.errors import ArgumentError
from rcfvis.model import RCFModel
from rcfvis.stream import stream_clip
from rcfvis.synthav import SpriteClip, generate_clip
from rcfvis.viseval import gt_tracks_from_clip, identity_switches, switch_rate


class TestLatency:
    def test_offline_six_point_four_seconds(self):
        # 6 FPS stream, 89.4 FPS model, 36-frame clip
        _, offline = latency_model(6.0, 89.4, 36)
        assert offline == pytest.approx(6.40, abs=0.005)

    def test_online_reported_table_value(self):
        online, _ = latency_model(6.0, 23.9)
        assert online == pytest.approx(0.209, abs=0.0005)
        assert online == pytest.approx(0.21, abs=0.005)

    def test_infinite_model_speed_limit(self):
        online, _ = latency_model(6.0, 1e12)
        assert online == pytest.approx(1.0 / 6.0, abs=1e-9)

    def test_nonpositive_rejected(self):
        with pytest.raises(ArgumentError):
            latency_model(0.0, 10.0)
        with pytest.raises(ArgumentError):
            latency_model(6.0, 10.0, 0)

    @pytest.mark.parametrize("fps_stream, fps_model", [(np.nan, 10.0), (6.0, np.nan), (np.inf, 10.0), (6.0, np.inf)])
    def test_nonfinite_rejected(self, fps_stream, fps_model):
        with pytest.raises(ArgumentError, match="finite"):
            latency_model(fps_stream, fps_model)


def hard_cut_clip(a: SpriteClip, b: SpriteClip) -> SpriteClip:
    """Concatenate two clips into one with a hard cut at the seam."""
    ga, gb = a.num_instances, b.num_instances
    t_a = a.num_frames
    masks = np.zeros((t_a + b.num_frames, ga + gb, *a.frames.shape[2:]), dtype=np.uint8)
    masks[:t_a, :ga] = [a.masks(t) for t in range(t_a)]
    masks[t_a:, ga:] = [b.masks(t) for t in range(b.num_frames)]
    mask_words, mask_offsets = rle_encode_planes(masks.reshape(masks.shape[0] * (ga + gb), -1))
    vis = np.zeros((t_a + b.num_frames, ga + gb), dtype=bool)
    vis[:t_a, :ga] = a.visibility
    vis[t_a:, ga:] = b.visibility
    return replace(
        a,
        frames=np.concatenate([a.frames, b.frames]),
        mask_words=mask_words,
        mask_offsets=mask_offsets,
        gt_classes=np.concatenate([a.gt_classes, b.gt_classes]),
        gt_identities=np.concatenate([a.gt_identities, b.gt_identities + ga]).astype(np.uint32),
        visibility=vis,
        waveform=np.concatenate([a.waveform, b.waveform]),
        clip_id=f"{a.clip_id}+{b.clip_id}",
    )


def probe_cfg(**kw):
    return RunConfig(image_h=32, image_w=48, audio_enabled=False, num_slots=6, gen_noise=0.0, **kw).validate()


def probe_model(**kw):
    return RCFModel(probe_cfg(**kw))


def static_clip(seed=0, frames=4):
    return generate_clip(
        seed,
        probe_cfg(gen_frames=frames, gen_min_sprites=1, gen_max_sprites=1, gen_min_speed=0.0, gen_max_speed=0.0),
    )


def streamed_switches(model, clip):
    """(followed, switched) per frame transition of the streamed clip."""
    return identity_switches(stream_clip(model, clip)[0], gt_tracks_from_clip(clip))


class TestOrderProbe:
    def test_duplicated_frames_zero_discrepancy(self):
        # class_threshold=0 fires every slot, so the one sprite is followed on every frame
        model = probe_model(class_threshold=0.0)
        transitions = streamed_switches(model, static_clip())
        assert transitions == [(1, 0), (1, 0), (1, 0)]
        assert switch_rate([transitions]) == 0.0

    def test_hard_cut_has_maximal_output_discrepancy(self):
        model = probe_model(class_threshold=0.0)
        a = generate_clip(1, probe_cfg(gen_frames=4, gen_min_sprites=1, gen_max_sprites=1))
        b = generate_clip(99, probe_cfg(gen_frames=4, gen_min_sprites=2, gen_max_sprites=2))
        cut = hard_cut_clip(a, b)
        assert cut.num_frames == 8
        assert cut.masks(0).shape[0] == a.num_instances + b.num_instances
        transitions = streamed_switches(model, cut)
        assert len(transitions) == cut.num_frames - 1
        # no ground truth is visible on both sides of the cut, so none is followed across it
        across = transitions.pop(a.num_frames - 1)
        assert across == (0, 0)
        assert all(followed > 0 for followed, _ in transitions)
        assert switch_rate([[across, *transitions]]) == 0.0
