"""Latency arithmetic, Lipschitz bounds, order-stability probe."""

from dataclasses import replace

import numpy as np
import pytest

from rcfvis.analysis import (
    backbone_norms,
    conv_operator_norm,
    latency_model,
    lipschitz_bound,
    order_stability_probe,
)
from rcfvis.config import RunConfig
from rcfvis.container import rle_encode_planes
from rcfvis.errors import ArgumentError
from rcfvis.linalg import operator_norm
from rcfvis.model import RCFModel
from rcfvis.synthav import SpriteClip, generate_clip
from rcfvis.tensor import Tensor, no_grad
from rcfvis import _kernels

from test_fused_ops import relu  # the ReLU as its own tape node


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


def unrolled_conv_matrix(w, in_shape, stride, pad):
    """Build the explicit matrix by pushing basis vectors through the conv."""
    c, h, wd = in_shape
    cols = []
    for idx in range(c * h * wd):
        e = np.zeros(c * h * wd)
        e[idx] = 1.0
        y = _kernels.conv2d_forward(e.reshape(in_shape), w, stride, pad)[0]
        cols.append(y.ravel())
    return np.stack(cols, axis=1)


class TestConvOperatorNorm:
    def test_matches_unrolled_matrix(self, rng):
        w = rng.standard_normal((3, 2, 3, 3))
        in_shape = (2, 4, 5)
        mat = unrolled_conv_matrix(w, in_shape, 1, 1)
        assert conv_operator_norm(w, in_shape, 1, 1, 2) == pytest.approx(np.linalg.svd(mat)[1][0], rel=1e-8)
        assert conv_operator_norm(w, in_shape, 1, 1, np.inf) == pytest.approx(np.abs(mat).sum(axis=1).max(), rel=1e-12)

    def test_strided_case(self, rng):
        w = rng.standard_normal((2, 2, 3, 3))
        in_shape = (2, 6, 6)
        mat = unrolled_conv_matrix(w, in_shape, 2, 1)
        assert conv_operator_norm(w, in_shape, 2, 1, 2) == pytest.approx(np.linalg.svd(mat)[1][0], rel=1e-8)


class TestLipschitz:
    def test_two_layer_diagonal_product(self):
        # diag(2) then diag(3): composition bound = product of norms = 6
        w1 = np.diag([2.0, 2.0])
        w2 = np.diag([3.0, 3.0])
        assert operator_norm(w1, 2) * operator_norm(w2, 2) == pytest.approx(6.0, abs=1e-9)

    def test_weight_scaling_homogeneity(self, rng):
        model = RCFModel(RunConfig(image_h=16, image_w=16, audio_enabled=False).validate())
        base = backbone_norms(model, 2)
        for _, w, _, _ in model.backbone.conv_weights():
            w.data *= 2.0
        doubled = backbone_norms(model, 2)
        for e_base, e_doubled in zip(base, doubled):
            assert abs(e_doubled.norm - 2.0 * e_base.norm) < 1e-8
        prod_base = np.prod([e.norm for e in base])
        prod_doubled = np.prod([e.norm for e in doubled])
        assert prod_doubled == pytest.approx(prod_base * 2**4, rel=1e-7)

    def test_sampled_ratios_below_product_bound(self, rng):
        # norm layers bypassed, so every nonlinearity is 1-Lipschitz
        model = RCFModel(RunConfig(image_h=16, image_w=16, audio_enabled=False).validate())

        def convs_only(x):
            h = Tensor(x)
            for conv, _ in model.backbone.blocks:
                h = relu(conv(h))
            return h.data

        for p in (2, np.inf):
            bound = float(np.prod([e.norm for e in backbone_norms(model, p)]))
            worst = 0.0
            with no_grad():
                for _ in range(100):
                    x = rng.random((3, 16, 16))
                    y = rng.random((3, 16, 16))
                    gap = (convs_only(x) - convs_only(y)).ravel()
                    worst = max(worst, np.linalg.norm(gap, p) / np.linalg.norm((x - y).ravel(), p))
            assert worst <= bound * (1 + 1e-9)

    def test_report_structure(self):
        model = RCFModel(RunConfig(image_h=16, image_w=16).validate())
        report = lipschitz_bound(model, 2)
        assert "backbone" in report.products and report.products["backbone"] > 0
        assert "encoder" in report.attention_ratios
        kinds = {e.kind for e in report.entries}
        assert kinds >= {"conv", "linear", "attention"}
        attention_entries = [e for e in report.entries if e.kind == "attention"]
        assert all(e.norm is None and "unbounded" in e.note for e in attention_entries)


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


def probe_model():
    return RCFModel(probe_cfg())


def static_clip(seed=0, frames=4):
    return generate_clip(
        seed,
        probe_cfg(gen_frames=frames, gen_min_sprites=1, gen_max_sprites=1, gen_min_speed=0.0, gen_max_speed=0.0),
    )


class TestOrderProbe:
    def test_duplicated_frames_zero_discrepancy(self):
        model = probe_model()
        report = order_stability_probe(model, static_clip())
        assert len(report.rows) == 3
        for row in report.rows:
            assert row.eps == 0.0
            assert row.delta == pytest.approx(0.0, abs=1e-12)
            assert row.ratio == 0.0
            assert not row.changed

    def test_hard_cut_has_maximal_output_discrepancy(self):
        model = probe_model()
        a = generate_clip(1, probe_cfg(gen_frames=4, gen_min_sprites=1, gen_max_sprites=1))
        b = generate_clip(99, probe_cfg(gen_frames=4, gen_min_sprites=2, gen_max_sprites=2))
        cut = hard_cut_clip(a, b)
        assert cut.num_frames == 8
        assert cut.masks(0).shape[0] == a.num_instances + b.num_instances
        report = order_stability_probe(model, cut)
        deltas = [r.delta for r in report.rows]
        cut_row = report.rows[a.num_frames - 1]
        assert cut_row.t == a.num_frames
        assert cut_row.delta == max(deltas)

    def test_probe_rejects_single_frame(self):
        model = probe_model()
        clip = static_clip(frames=2)
        one = replace(
            clip,
            frames=clip.frames[:1],
            mask_offsets=clip.mask_offsets[: clip.num_instances + 1],
            visibility=clip.visibility[:1],
        )
        with pytest.raises(ArgumentError):
            order_stability_probe(model, one)

    def test_probe_p_variants(self):
        model = probe_model()
        clip = static_clip()
        for p in (1, 2, "inf"):
            report = order_stability_probe(model, clip, p=p)
            assert len(report.rows) == clip.num_frames - 1
