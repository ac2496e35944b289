"""Token building, compression, fusion encoder, layout bookkeeping."""

import numpy as np
import pytest

from rcfvis.config import RunConfig
from rcfvis.errors import ArgumentError
from rcfvis.fusion import (
    AudioTokenizer,
    FusionEncoder,
    ReferenceTokenizer,
    TargetTokenizer,
    TokenLayout,
    TokenSet,
    sincos_position_encoding_2d,
    split_fused,
)
from rcfvis.model import RCFModel
from rcfvis.nn import BiLSTM, module_rng
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
        assert grad_check(lambda t: (tok(t) ** 2).sum(), x) < 1e-5


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
        feats = [Tensor(rng.standard_normal(16)) for _ in range(3)]
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
        assert grad_check(lambda t: (lstm(t) ** 2).sum(), x) < 1e-4


def layout(h=8, w=12, k=2, audio=2):
    return TokenLayout(h=h, w=w, k=k, audio_len=audio)


class TestFusionEncoder:
    def make(self, dim=16, heads=4, depth=2, seed=0):
        return FusionEncoder("enc", dim, heads, depth, module_rng(seed, "enc"))

    def test_attention_rows_sum_to_one(self, rng):
        enc = self.make()
        lay = TokenLayout(h=2, w=3, k=1, audio_len=2)
        ts = TokenSet(tokens=Tensor(rng.standard_normal((lay.total, 16))), layout=lay)
        _, diag = enc(ts)
        for layer in diag.attention:
            assert np.abs(layer.sum(axis=2) - 1.0).max() < 1e-6

    def test_single_token_weight_is_one(self, rng):
        enc = self.make()
        lay = TokenLayout(h=1, w=1, k=0, audio_len=0)
        ts = TokenSet(tokens=Tensor(rng.standard_normal((1, 16))), layout=lay)
        fused, diag = enc(ts)
        for layer in diag.attention:
            assert np.abs(layer - 1.0).max() < 1e-12
        assert np.isfinite(fused.tokens.data).all()

    def test_zero_output_projections_make_identity(self, rng):
        enc = self.make(seed=5)
        for layer in enc.layers:
            layer.attn.wo.w.data[:] = 0.0
            layer.attn.wo.b.data[:] = 0.0
            layer.ffn.fc2.w.data[:] = 0.0
            layer.ffn.fc2.b.data[:] = 0.0
        lay = TokenLayout(h=2, w=2, k=1, audio_len=0)
        x = rng.standard_normal((lay.total, 16))
        fused, _ = enc(TokenSet(tokens=Tensor(x), layout=lay))
        assert np.array_equal(fused.tokens.data, x)

    def test_matches_naive_per_head_reference(self, rng):
        enc = self.make(dim=8, heads=2, depth=1, seed=7)
        lay = TokenLayout(h=2, w=2, k=2, audio_len=0)
        x = rng.standard_normal((8, 8))
        fused, diag = enc(TokenSet(tokens=Tensor(x), layout=lay))

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
            assert np.abs(diag.attention[0][h] - w).max() < 1e-12
        attended = np.concatenate(heads_out, axis=1) @ layer.attn.wo.w.data + layer.attn.wo.b.data
        mid = x + attended
        normed2 = np_ln(mid, layer.ln2.gain.data, layer.ln2.bias.data)
        ffn = np.maximum(normed2 @ layer.ffn.fc1.w.data + layer.ffn.fc1.b.data, 0.0)
        ref = mid + ffn @ layer.ffn.fc2.w.data + layer.ffn.fc2.b.data
        assert np.abs(fused.tokens.data - ref).max() < 1e-12


class TestLayoutAndSplit:
    def test_token_count_identity_defaults(self):
        cfg = RunConfig()
        model = RCFModel(cfg)
        clip_frame = np.zeros((3, 64, 96))
        target = model.extract(clip_frame)
        refs = [model.extract(clip_frame)]
        feats = [Tensor(np.zeros(cfg.audio_dim)) for _ in range(2)]
        ts = model.build_tokens(target, refs, feats)
        assert ts.layout.total == 96 + 4 + 2 == 102

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
        refs = [model.extract(frame) for _ in range(cfg.ref_frames)]
        feats = [Tensor(np.zeros(cfg.audio_dim)) for _ in range(cfg.ref_frames + 1)] if cfg.audio_enabled else None
        built = model.build_tokens(model.extract(frame), refs, feats).layout
        assert built == model.token_layout(*cfg.feature_hw)

    def test_split_round_trip(self, rng):
        lay = layout()
        c = 16
        tokens = rng.standard_normal((lay.total, c))
        ts = TokenSet(tokens=Tensor(tokens), layout=lay)
        tgt_map = split_fused(ts)
        assert tgt_map.shape == (c, lay.h, lay.w)
        # reshape(flatten(x)) == x
        back = tgt_map.reshape(c, lay.h * lay.w).transpose().data
        assert np.array_equal(back, tokens[: lay.n_target])

    def test_layout_arithmetic(self):
        lay = layout()
        assert lay.total - lay.n_target - lay.audio_len == lay.k * lay.k


def test_audio_flag_keeps_visual_blocks_bit_identical(rng):
    cfg_on = RunConfig(audio_enabled=True).validate()
    cfg_off = RunConfig(audio_enabled=False).validate()
    m_on, m_off = RCFModel(cfg_on), RCFModel(cfg_off)
    frame = rng.random((3, 64, 96))
    t_on, t_off = m_on.extract(frame), m_off.extract(frame)
    r_on, r_off = [m_on.extract(frame)], [m_off.extract(frame)]
    feats = [Tensor(np.zeros(cfg_on.audio_dim)) for _ in range(2)]
    ts_on = m_on.build_tokens(t_on, r_on, feats)
    ts_off = m_off.build_tokens(t_off, r_off, None)
    n_vis = ts_off.layout.total
    assert ts_on.layout.total == n_vis + 2
    assert np.array_equal(ts_on.tokens.data[:n_vis], ts_off.tokens.data)
