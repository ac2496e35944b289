"""Token building, compression, fusion encoder, segment bookkeeping."""

import numpy as np
import pytest

from rcfvis.config import RunConfig
from rcfvis.errors import ArgumentError
from rcfvis.fusion import (
    AudioTokenizer,
    FusionEncoder,
    ReferenceTokenizer,
    TargetTokenizer,
    segment_mass,
    sincos_position_encoding_2d,
    split_fused,
)
from rcfvis.model import RCFModel
from rcfvis.nn import BiLSTM, MultiheadAttention, module_rng
from rcfvis.tensor import Tensor, grad_check


class TestTargetTokens:
    def test_token_count(self, rng):
        tok = TargetTokenizer("t", 8, 16, module_rng(0, "t"))
        out = tok(Tensor(rng.standard_normal((8, 3, 5))))
        assert out.shape == (15, 16)

    def test_zero_feature_gives_bias_plus_positions(self):
        tok = TargetTokenizer("t", 8, 16, module_rng(1, "t"))
        out = tok(Tensor(np.zeros((8, 4, 4))))
        expected = tok.proj.b.data[None, :] + sincos_position_encoding_2d(4, 4, 16)
        assert np.abs(out.data - expected).max() == 0.0

    def test_projection_gradient(self, rng):
        tok = TargetTokenizer("t", 4, 8, module_rng(2, "t"))
        x = Tensor(rng.standard_normal((4, 2, 3)))

        def f(t):
            y = tok(t)
            return (y * y).sum()

        assert grad_check(f, x) < 1e-5


class TestReferenceTokens:
    def make(self, delta=1, k=2, seed=0):
        return ReferenceTokenizer("r", 6, delta, 12, k, module_rng(seed, "r"))

    def test_token_count_k2(self, rng):
        tok = self.make()
        out = tok([Tensor(rng.standard_normal((6, 4, 6)))])
        assert out.shape == (4, 12)  # K*K = 4, the ablation's best token size

    def zero_weight_map(self, tok):
        tok.weight_proj.w.data[:] = 0.0
        tok.weight_proj.b.data[:] = 0.0  # sigmoid(0) = 0.5 everywhere
        return tok

    def test_zero_weight_map_halves_a_constant(self):
        tok = self.zero_weight_map(self.make())
        comp = tok.compressed([Tensor(np.full((6, 4, 6), 2.5))])
        assert np.array_equal(comp.data, np.full((6, 2, 2), 1.25))

    def test_frozen_zero_weight_map_halves_unweighted_path(self, rng):
        tok = self.zero_weight_map(self.make(seed=3))
        x = rng.standard_normal((6, 4, 6))
        comp = tok.compressed([Tensor(x)])
        block_mean = x.reshape(6, 2, 2, 2, 3).mean(axis=(2, 4))
        assert np.abs(comp.data - 0.5 * block_mean).max() < 1e-12

    def test_mismatched_extents_rejected(self, rng):
        tok = self.make(delta=2)
        with pytest.raises(ArgumentError):
            tok([Tensor(rng.standard_normal((6, 4, 6))), Tensor(rng.standard_normal((6, 8, 6)))])

    def test_delta_order_changes_values_not_layout(self, rng):
        tok = self.make(delta=2)
        a = Tensor(rng.standard_normal((6, 4, 6)))
        b = Tensor(rng.standard_normal((6, 4, 6)))
        out_ab = tok([a, b])
        out_ba = tok([b, a])
        assert out_ab.shape == out_ba.shape == (4, 12)


class TestAudioTokens:
    def test_token_count(self, rng):
        tok = AudioTokenizer("a", 16, 2, 12, 8, module_rng(0, "a"))
        feats = [Tensor(rng.standard_normal((1, 16))) for _ in range(3)]
        assert tok(feats).shape == (3, 12)

    def test_wrong_count_rejected(self, rng):
        tok = AudioTokenizer("a", 16, 1, 12, 8, module_rng(1, "a"))
        with pytest.raises(ArgumentError):
            tok([Tensor(rng.standard_normal(16))] * 3)

    def test_lstm_direction_swap_symmetry(self, rng):
        # with identical inputs at every step, swapping the direction weight
        # sets mirrors the sequence outputs
        lstm = BiLSTM("l", 6, 5, 1, module_rng(2, "l"))
        x = np.tile(rng.standard_normal(6), (4, 1))
        out = lstm(Tensor(x)).data
        fwd, bwd = lstm.layers[0]
        fwd.wx, bwd.wx = bwd.wx, fwd.wx
        fwd.wh, bwd.wh = bwd.wh, fwd.wh
        fwd.b, bwd.b = bwd.b, fwd.b
        swapped = lstm(Tensor(x)).data
        assert np.abs(swapped[:, :5] - out[::-1, 5:]).max() < 1e-12
        assert np.abs(swapped[:, 5:] - out[::-1, :5]).max() < 1e-12

    def test_lstm_gradient(self, rng):
        lstm = BiLSTM("l", 4, 3, 2, module_rng(3, "l"))
        x = Tensor(rng.standard_normal((3, 4)))

        def f(t):
            y = lstm(t)
            return (y * y).sum()

        assert grad_check(f, x) < 1e-4


class TestFusionEncoder:
    def make(self, dim=16, heads=4, depth=2, seed=0):
        return FusionEncoder("enc", dim, heads, depth, module_rng(seed, "enc"))

    def test_heads_must_divide_dim(self):
        with pytest.raises(ArgumentError, match="dim 16 does not divide into 3 heads"):
            MultiheadAttention("attn", 16, 3, module_rng(0, "attn"))
        assert MultiheadAttention("attn", 16, 4, module_rng(0, "attn")).heads == 4

    def test_attention_rows_sum_to_one(self, rng):
        enc = self.make()
        attention = enc.attention_maps(Tensor(rng.standard_normal((9, 16))))
        assert [layer.shape for layer in attention] == [(4, 9, 9)] * 2
        for layer in attention:
            assert np.abs(layer.sum(axis=2) - 1.0).max() < 1e-6

    def test_single_token_weight_is_one(self, rng):
        enc = self.make()
        x = Tensor(rng.standard_normal((1, 16)))
        fused, attention = enc(x), enc.attention_maps(x)
        for layer in attention:
            assert np.abs(layer - 1.0).max() < 1e-12
        assert np.isfinite(fused.data).all()

    def test_zero_output_projections_make_identity(self, rng):
        enc = self.make(seed=5)
        for layer in enc.layers:
            layer.attn.wo.w.data[:] = 0.0
            layer.attn.wo.b.data[:] = 0.0
            layer.ffn.fc2.w.data[:] = 0.0
            layer.ffn.fc2.b.data[:] = 0.0
        x = rng.standard_normal((5, 16))
        fused = enc(Tensor(x))
        assert np.array_equal(fused.data, x)

    def test_matches_naive_per_head_reference(self, rng):
        enc = self.make(dim=8, heads=2, depth=1, seed=7)
        x = rng.standard_normal((8, 8))
        fused, attention = enc(Tensor(x)), enc.attention_maps(Tensor(x))

        layer = enc.layers[0]

        def np_ln(v, gain, bias):
            mu = v.mean(axis=-1, keepdims=True)
            var = ((v - mu) ** 2).mean(axis=-1, keepdims=True)
            return (v - mu) / np.sqrt(var + 1e-5) * gain + bias

        normed = np_ln(x, layer.ln1.gain.data, layer.ln1.bias.data)
        q = normed @ layer.attn.wq.w.data + layer.attn.wq.b.data
        k = normed @ layer.attn.wk.w.data
        v = normed @ layer.attn.wv.w.data + layer.attn.wv.b.data
        heads_out = []
        for h in range(2):
            sl = slice(h * 4, (h + 1) * 4)
            logits = q[:, sl] @ k[:, sl].T / np.sqrt(4)
            w = np.exp(logits - logits.max(axis=1, keepdims=True))
            w /= w.sum(axis=1, keepdims=True)
            heads_out.append(w @ v[:, sl])
            assert np.abs(attention[0][h] - w).max() < 1e-12
            assert np.abs(attention[0][h].sum(axis=1) - 1.0).max() < 1e-12
        attended = np.concatenate(heads_out, axis=1) @ layer.attn.wo.w.data + layer.attn.wo.b.data
        mid = x + attended
        normed2 = np_ln(mid, layer.ln2.gain.data, layer.ln2.bias.data)
        ffn = np.maximum(normed2 @ layer.ffn.fc1.w.data + layer.ffn.fc1.b.data, 0.0)
        ref = mid + ffn @ layer.ffn.fc2.w.data + layer.ffn.fc2.b.data
        assert np.abs(fused.data - ref).max() < 1e-12


class TestLayoutAndSplit:
    def test_token_count_identity_defaults(self):
        cfg = RunConfig()
        model = RCFModel(cfg)
        clip_frame = np.zeros((3, 64, 96))
        target = model.extract(clip_frame)
        refs = [model.extract(clip_frame).f]
        feats = [Tensor(np.zeros((1, cfg.audio_dim))) for _ in range(2)]
        tokens = model.build_tokens(target, refs, feats)
        assert tokens.shape[0] == 96 + 4 + 2 == 102

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"ref_frames": 0},
            {"audio_enabled": False},
            {"ref_frames": 0, "audio_enabled": False},
            {"ref_frames": 3, "ref_token_k": 4},
        ],
    )
    def test_token_layout_is_the_built_layout(self, overrides):
        cfg = RunConfig(**overrides).validate()
        model = RCFModel(cfg)
        frame = np.zeros((3, cfg.image_h, cfg.image_w))
        target = model.extract(frame)
        refs = [model.extract(frame).f for _ in range(cfg.ref_frames)]
        feats = [Tensor(np.zeros((1, cfg.audio_dim))) for _ in range(cfg.ref_frames + 1)] if cfg.audio_enabled else None
        built = model.build_tokens(target, refs, feats)
        segments = model.token_segments(*cfg.feature_hw)
        rows = {
            "target": model.target_tok(target.f).shape[0],
            "reference": model.ref_tok(refs).shape[0] if model.ref_tok is not None else 0,
            "audio": model.audio_tok(feats).shape[0] if model.audio_tok is not None else 0,
        }
        assert {name: sl.stop - sl.start for name, sl in segments.items()} == rows
        assert segments["target"].start == 0 and segments["audio"].stop == built.shape[0]
        assert segments["target"].stop == segments["reference"].start
        assert segments["reference"].stop == segments["audio"].start

    def test_split_round_trip(self, rng):
        h, w, c = 8, 12, 16
        tokens = rng.standard_normal((h * w + 6, c))
        tgt_map = split_fused(Tensor(tokens), h, w)
        assert tgt_map.shape == (c, h, w)
        # reshape(flatten(x)) == x
        back = tgt_map.reshape(c, h * w).transpose().data
        assert np.array_equal(back, tokens[: h * w])

    def test_segment_mass_averages_heads_rows_and_layers(self):
        # two layers of two heads over target (2 tokens), no reference, audio (1 token)
        attention = [
            np.array([
                [[0.5, 0.25, 0.25], [1.0, 0.0, 0.0], [0.0, 0.5, 0.5]],
                [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]],
            ]),
            np.array([
                [[0.0, 0.0, 1.0], [0.5, 0.5, 0.0], [1.0, 0.0, 0.0]],
                [[0.25, 0.25, 0.5], [0.75, 0.0, 0.25], [0.5, 0.0, 0.5]],
            ]),
        ]
        segments = {"target": slice(0, 2), "reference": slice(2, 2), "audio": slice(2, 3)}
        mass = segment_mass(attention, segments)
        # rows: source target, reference, audio; columns: destination
        assert np.array_equal(mass, [[0.625, 0.0, 0.375], [0.0, 0.0, 0.0], [0.75, 0.0, 0.25]])

    def test_layout_arithmetic(self):
        segments = RCFModel(RunConfig()).token_segments(8, 12)
        assert [segments[name] for name in ("target", "reference", "audio")] == [
            slice(0, 96), slice(96, 100), slice(100, 102)
        ]


def test_audio_flag_keeps_visual_blocks_bit_identical(rng):
    cfg_on = RunConfig(audio_enabled=True).validate()
    cfg_off = RunConfig(audio_enabled=False).validate()
    m_on, m_off = RCFModel(cfg_on), RCFModel(cfg_off)
    frame = rng.random((3, 64, 96))
    t_on, t_off = m_on.extract(frame), m_off.extract(frame)
    r_on, r_off = [m_on.extract(frame).f], [m_off.extract(frame).f]
    feats = [Tensor(np.zeros((1, cfg_on.audio_dim))) for _ in range(2)]
    tokens_on = m_on.build_tokens(t_on, r_on, feats)
    tokens_off = m_off.build_tokens(t_off, r_off, None)
    n_vis = tokens_off.shape[0]
    assert tokens_on.shape[0] == n_vis + 2
    assert np.array_equal(tokens_on.data[:n_vis], tokens_off.data)
