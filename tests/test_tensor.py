"""Autodiff core: op correctness, gradient oracle, softmax/attention contracts."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from rcfvis import _kernels, tensor
from rcfvis.config import RunConfig
from rcfvis.errors import ArgumentError, NumericError
from rcfvis.model import RCFModel
from rcfvis.stream import stream_clip
from rcfvis.synthav import generate_clip
from rcfvis.tensor import (
    Tensor,
    attention_weights,
    avg_pool2d,
    concat,
    conv2d,
    grad_check,
    no_grad,
    scaled_dot_product_attention,
    sigmoid,
    softmax,
    upsample2x,
)

from test_fused_ops import relu  # the ReLU as its own tape node

# frozen with a 40-digit evaluation of exp(k)/sum(exp([1,2,3]))
SOFTMAX_123 = np.array([0.0900305731703804579980221, 0.2447284710547976524729596, 0.6652409557748218895290183])


class TestSoftmax:
    def test_symmetry(self):
        assert np.allclose(softmax(Tensor([0.0, 0.0]), 0).data, [0.5, 0.5], atol=1e-15)

    def test_large_logits_stable(self):
        out = softmax(Tensor([1000.0, 0.0]), 0).data
        assert np.isfinite(out).all()
        assert out[0] == pytest.approx(1.0, abs=1e-12)
        assert out[1] == pytest.approx(0.0, abs=1e-12)

    def test_high_precision_values(self):
        out = softmax(Tensor([1.0, 2.0, 3.0]), 0).data
        assert np.abs(out - SOFTMAX_123).max() < 1e-15

    def test_rows_sum_to_one_and_shift_invariance(self, rng):
        x = rng.standard_normal((7, 5)) * 10
        out = softmax(Tensor(x), 1).data
        assert np.abs(out.sum(axis=1) - 1.0).max() < 1e-9
        shifted = softmax(Tensor(x + 3.7), 1).data
        assert np.abs(out - shifted).max() < 1e-9

    def test_invalid_axis(self):
        with pytest.raises(ArgumentError):
            softmax(Tensor([1.0, 2.0]), 3)


class TestAttention:
    def test_single_key_returns_value(self, rng):
        q = Tensor(rng.standard_normal((4, 3)))
        k = Tensor(rng.standard_normal((1, 3)))
        v = Tensor(rng.standard_normal((1, 6)))
        out = scaled_dot_product_attention(q, k, v, 1)
        w = attention_weights(q.data, k.data, 1)
        assert np.allclose(out.data, np.repeat(v.data, 4, axis=0))
        assert w.shape == (1, 4, 1) and np.allclose(w[0], 1.0)

    def test_zero_logits_average_values(self, rng):
        q = Tensor(np.zeros((2, 3)))
        k = Tensor(rng.standard_normal((5, 3)))
        v = Tensor(rng.standard_normal((5, 4)))
        out = scaled_dot_product_attention(Tensor(np.zeros((2, 3))), Tensor(np.zeros((5, 3))), v, 1)
        assert np.allclose(out.data, v.data.mean(axis=0), atol=1e-12)

    def test_matches_naive_double_loop(self, rng):
        q, k, v = (rng.standard_normal((3, 4)) for _ in range(3))
        out = scaled_dot_product_attention(Tensor(q), Tensor(k), Tensor(v), 1)
        w = attention_weights(q, k, 1)
        # independent reference: explicit loops, no shared code path
        logits = np.empty((3, 3))
        for i in range(3):
            for j in range(3):
                logits[i, j] = sum(q[i, d] * k[j, d] for d in range(4)) / math.sqrt(4)
        ref_w = np.exp(logits - logits.max(axis=1, keepdims=True))
        ref_w /= ref_w.sum(axis=1, keepdims=True)
        ref_out = ref_w @ v
        assert np.abs(out.data - ref_out).max() < 1e-12
        assert np.abs(w[0] - ref_w).max() < 1e-12

    def test_key_permutation_equivariance(self, rng):
        q = Tensor(rng.standard_normal((4, 5)))
        k = rng.standard_normal((6, 5))
        v = rng.standard_normal((6, 3))
        perm = rng.permutation(6)
        out = scaled_dot_product_attention(q, Tensor(k), Tensor(v), 1)
        out_p = scaled_dot_product_attention(q, Tensor(k[perm]), Tensor(v[perm]), 1)
        w, w_p = attention_weights(q.data, k, 1), attention_weights(q.data, k[perm], 1)
        assert np.abs(out.data - out_p.data).max() < 1e-12
        assert np.abs(w[0][:, perm] - w_p[0]).max() < 1e-12

    def test_shape_mismatch(self, rng):
        with pytest.raises(ArgumentError):
            scaled_dot_product_attention(
                Tensor(rng.standard_normal((2, 3))),
                Tensor(rng.standard_normal((2, 4))),
                Tensor(rng.standard_normal((2, 2))),
                1,
            )

    @pytest.mark.parametrize("heads", [1, 2, 8])
    def test_matches_per_head_composite_forward_and_grads(self, rng, heads):
        lq, lk, dk, dv = 5, 7, 3, 2  # d_v != d_k and L_q != L_k
        q0, k0 = rng.standard_normal((lq, heads * dk)), rng.standard_normal((lk, heads * dk))
        v0 = rng.standard_normal((lk, heads * dv))
        seed = rng.standard_normal((lq, heads * dv))
        results = []
        for attend in (fused_attention, per_head_attention):
            q, k, v = (Tensor(a.copy(), requires_grad=True) for a in (q0, k0, v0))
            out, w = attend(q, k, v, heads)
            out.backward(seed)
            results.append((out.data, w, q.grad, k.grad, v.grad))
        for fused, oracle in zip(*results):
            assert fused.shape == oracle.shape
            assert np.abs(fused - oracle).max() < 1e-12

    @pytest.mark.parametrize(
        "lq, lk, tile_heads, tile_sizes",
        [(390, 390, None, [1] * 8), (32, 390, None, [8]), (5, 7, 3, [3, 3, 2])],
    )
    def test_tiles_match_batched_oracle_bit_for_bit(self, rng, monkeypatch, lq, lk, tile_heads, tile_sizes):
        heads, dk, dv = 8, 8, 4
        if tile_heads is not None:
            monkeypatch.setattr(tensor, "_ATTN_TILE_BYTES", tile_heads * lq * lk * 8)
        assert [t.stop - t.start for t in tensor._head_tiles(heads, lq, lk, 8)] == tile_sizes
        q0, k0 = rng.standard_normal((lq, heads * dk)), rng.standard_normal((lk, heads * dk))
        v0 = rng.standard_normal((lk, heads * dv))
        seed = rng.standard_normal((lq, heads * dv))
        q, k, v = (Tensor(a.copy(), requires_grad=True) for a in (q0, k0, v0))
        out, w = fused_attention(q, k, v, heads)
        out.backward(seed)
        for got, want in zip((out.data, w, q.grad, k.grad, v.grad), batched_attention(q0, k0, v0, heads, seed)):
            assert got.shape == want.shape and np.array_equal(got, want)

    @pytest.mark.parametrize("heads", [1, 2, 8])
    def test_matches_shifted_softmax_within_1e_14_relative(self, rng, heads):
        lq, lk, dk, dv = 9, 13, 8, 4
        q, k = 2 * rng.standard_normal((lq, heads * dk)), 2 * rng.standard_normal((lk, heads * dk))
        v = rng.standard_normal((lk, heads * dv))
        assert not tensor._needs_shift(q.reshape(lq, heads, dk) / math.sqrt(dk), k.reshape(lk, heads, dk), q.dtype)
        want_out, want_w = max_shifted_attention(q, k, v, heads)
        got_out = scaled_dot_product_attention(Tensor(q), Tensor(k), Tensor(v), heads).data
        got_w = attention_weights(q, k, heads)
        assert np.abs(got_out - want_out).max() <= 1e-14 * np.abs(want_out).max()
        assert np.abs(got_w - want_w).max() <= 1e-14 * np.abs(want_w).max()

    # Q and K scales: small scores, where the row-max shift is skipped, and
    # scores beyond +-1e3, where an unshifted exp overflows
    @pytest.mark.parametrize("scale, shift", [(1.0, False), (30.0, True)], ids=["unshifted", "shifted"])
    @pytest.mark.parametrize("lq, lk, tile_heads", [(390, 390, None), (5, 7, 3)])
    def test_both_branches_match_oracle_and_agree_across_paths(
        self, rng, monkeypatch, scale, shift, lq, lk, tile_heads
    ):
        heads, dk, dv = 8, 8, 4
        if tile_heads is not None:
            monkeypatch.setattr(tensor, "_ATTN_TILE_BYTES", tile_heads * lq * lk * 8)
        q0, k0 = scale * rng.standard_normal((lq, heads * dk)), scale * rng.standard_normal((lk, heads * dk))
        v0 = rng.standard_normal((lk, heads * dv))
        qh, kh = q0.reshape(lq, heads, dk), k0.reshape(lk, heads, dk)
        assert tensor._needs_shift(qh / math.sqrt(dk), kh, q0.dtype) == shift
        scores = np.abs(np.einsum("qhd,khd->hqk", qh, kh)) / math.sqrt(dk)
        with np.errstate(over="ignore"):
            assert np.isinf(np.exp(scores)).any() == shift and (scores.max() > 1e3) == shift
        seed = rng.standard_normal((lq, heads * dv))
        q, k, v = (Tensor(a.copy(), requires_grad=True) for a in (q0, k0, v0))
        recorded = scaled_dot_product_attention(q, k, v, heads)
        with no_grad():
            streamed = scaled_dot_product_attention(q, k, v, heads)
        w, rebuilt = attention_weights(q0, k0, heads), spy_on_rebuilt_weights(monkeypatch)
        recorded.backward(seed)
        want = batched_attention(q0, k0, v0, heads, seed)
        for got, oracle in zip((recorded.data, w, q.grad, k.grad, v.grad), want):
            assert np.isfinite(got).all() and np.array_equal(got, oracle)
        assert np.array_equal(streamed.data, recorded.data)
        assert len(rebuilt) == 1 and np.array_equal(w, rebuilt[0])
        # a score's rounding error, and with it each weight's, grows with |score|
        tol = 1e-15 * max(10.0, scores.max())
        want_out, want_w = max_shifted_attention(q0, k0, v0, heads)
        assert np.abs(recorded.data - want_out).max() <= tol * np.abs(want_out).max()
        assert np.abs(w - want_w).max() <= tol

    @pytest.mark.parametrize("arg", [0, 1, 2])
    def test_grad_check_in_shift_branch(self, rng, arg):
        # one large entry in Q's first column and one in K's second: the bound
        # 2 * 25 / sqrt(2) * 25 exceeds _SAFE_LOGIT, but no product pairs them
        def big(qkv):
            qkv[0][0, 0] = qkv[1][0, 1] = 25.0
            assert tensor._needs_shift(qkv[0][None] / math.sqrt(2), qkv[1][None], np.float64)

        assert attention_grad_error(rng, arg, heads=1, edit=big) < 1e-6

    @pytest.mark.parametrize("lq, lk, tile_heads", [(390, 390, None), (102, 102, None), (5, 7, 3)])
    def test_no_grad_output_is_bit_identical_to_recording(self, rng, monkeypatch, lq, lk, tile_heads):
        heads, dk, dv = 8, 8, 8
        if tile_heads is not None:
            monkeypatch.setattr(tensor, "_ATTN_TILE_BYTES", tile_heads * lq * lk * 8)
        shapes = ((lq, heads * dk), (lk, heads * dk), (lk, heads * dv))
        q, k, v = (Tensor(rng.standard_normal(shape), requires_grad=True) for shape in shapes)
        recorded = scaled_dot_product_attention(q, k, v, heads)
        with no_grad():
            streamed = scaled_dot_product_attention(q, k, v, heads)
        assert recorded.requires_grad and not streamed.requires_grad
        assert np.array_equal(recorded.data, streamed.data)

    def test_no_grad_call_keeps_no_weights(self, rng):
        # the (8, 390, 390) weights alone are 9.7 MB; one head's scratch tile is 1.2 MB
        heads, lq = 8, 390
        q, k, v = (Tensor(rng.standard_normal((lq, heads * 8))) for _ in range(3))
        scaled_dot_product_attention(q, k, v, heads)  # warm up numpy's own caches
        tracemalloc.start()
        try:
            with no_grad():
                scaled_dot_product_attention(q, k, v, heads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 1024 * 1024

    @pytest.mark.parametrize("arg", [0, 1, 2])
    def test_grad_check_each_input(self, rng, arg):
        assert attention_grad_error(rng, arg, heads=2) < 1e-6

    @pytest.mark.parametrize("arg", [0, 1, 2])
    def test_grad_check_each_input_in_tiles_of_3_3_2(self, rng, monkeypatch, arg):
        monkeypatch.setattr(tensor, "_ATTN_TILE_BYTES", 3 * 3 * 5 * 8)
        assert [t.stop - t.start for t in tensor._head_tiles(8, 3, 5, 8)] == [3, 3, 2]
        assert attention_grad_error(rng, arg, heads=8) < 1e-6

    def test_a_recorded_node_keeps_no_weights(self, rng):
        # the (8, 390, 390) weights are 9.7 MB; the (390, 64) output 200 KB
        heads, lq = 8, 390
        q, k, v = (Tensor(rng.standard_normal((lq, heads * 8)), requires_grad=True) for _ in range(3))
        out = scaled_dot_product_attention(q, k, v, heads)
        assert out.requires_grad
        assert all(a.size < heads * lq * lq for a in saved_arrays(out))
        assert held_after(lambda: scaled_dot_product_attention(q, k, v, heads)) < out.data.nbytes + 4096

    def test_no_grad_records_no_parents(self, rng):
        q, k, v = (Tensor(rng.standard_normal((3, 4)), requires_grad=True) for _ in range(3))
        with no_grad():
            out = scaled_dot_product_attention(q, k, v, 2)
        assert not out.requires_grad and out._parents == ()

    def test_no_keys_rejected(self):
        with pytest.raises(ArgumentError, match="at least one key"):
            scaled_dot_product_attention(Tensor(np.ones((2, 4))), Tensor(np.ones((0, 4))), Tensor(np.ones((0, 4))), 2)

    def test_depth_must_split_into_heads(self, rng):
        q, k = Tensor(rng.standard_normal((2, 6))), Tensor(rng.standard_normal((3, 6)))
        with pytest.raises(ArgumentError):
            scaled_dot_product_attention(q, k, Tensor(rng.standard_normal((3, 6))), 4)
        with pytest.raises(ArgumentError):
            scaled_dot_product_attention(q, k, Tensor(rng.standard_normal((3, 5))), 2)


@pytest.mark.parametrize(
    "overrides",
    [{}, {"num_slots": 32}, {"image_h": 128, "image_w": 192, "num_slots": 32}],
    ids=["64x96", "64x96-32slots", "128x192-32slots"],
)
def test_tile_rule_on_model_configs(monkeypatch, overrides):
    """At 64x96 every attention call is one tile; at 128x192 the 390-token
    encoder runs one head per tile and the decoder stays in one tile.  Each
    tile's scores fit in _ATTN_TILE_BYTES, except a lone 390-token head."""
    calls = []
    head_tiles = tensor._head_tiles

    def recording(heads, lq, lk, itemsize):
        tiles = head_tiles(heads, lq, lk, itemsize)
        calls.append((lq, lk, len(tiles), max(t.stop - t.start for t in tiles) * lq * lk * itemsize))
        return tiles

    monkeypatch.setattr(tensor, "_head_tiles", recording)
    cfg = RunConfig(**overrides, gen_frames=2).validate()
    clip = generate_clip(0, cfg)
    stream_clip(RCFModel(cfg), clip)
    assert len(calls) == 2 * (cfg.enc_depth + 2 * cfg.dec_depth)
    for lq, lk, n_tiles, tile_bytes in calls:
        encoder_hires = lq == lk == 390
        assert n_tiles == (cfg.heads if encoder_hires else 1), (lq, lk)
        assert tile_bytes == 390 * 390 * 8 if encoder_hires else tile_bytes <= tensor._ATTN_TILE_BYTES
    assert any(lq == lk == 390 for lq, lk, _, _ in calls) == (cfg.image_h == 128)


def attention_grad_error(rng, arg, heads, edit=lambda qkv: None):
    """grad_check of Q, K or V (`arg`) for L_q = 3, L_k = 5, d_k = 2 and d_v = 3,
    after `edit` has changed the random Q, K and V in place."""
    qkv = [rng.standard_normal((3, 2 * heads)), rng.standard_normal((5, 2 * heads)), rng.standard_normal((5, 3 * heads))]
    edit(qkv)
    c = Tensor(rng.standard_normal((3, 3 * heads)))

    def f(t):
        args = [Tensor(a) for a in qkv]
        args[arg] = t
        return (scaled_dot_product_attention(*args, heads) * c).sum()

    return grad_check(f, Tensor(qkv[arg]))


def fused_attention(q, k, v, heads):
    """The op's output with its weights from `attention_weights`."""
    return scaled_dot_product_attention(q, k, v, heads), attention_weights(q.data, k.data, heads)


def batched_attention(q, k, v, heads, seed):
    """Reference: every head in one batched product per step, no tiles.

    Scales Q, shifts the scores by their row max only when the bound
    d_k * max|Q * scale| * max|K| exceeds _SAFE_LOGIT, takes the row sums
    of exp(scores) as a product with a ones vector, divides each row of
    exp(scores) V by its sum, and returns the output, the weights and the
    Q, K and V gradients for the output gradient `seed`.
    """
    lq, lk = q.shape[0], k.shape[0]
    dk, dv = q.shape[1] // heads, v.shape[1] // heads
    scale = 1.0 / math.sqrt(dk)
    qh = q.reshape(lq, heads, dk).transpose(1, 0, 2)
    kh = k.reshape(lk, heads, dk).transpose(1, 0, 2)
    vh = v.reshape(lk, heads, dv).transpose(1, 0, 2)
    w = np.matmul(qh * scale, kh.transpose(0, 2, 1))
    if dk * np.abs(qh * scale).max() * np.abs(kh).max() > tensor._SAFE_LOGIT:
        w -= w.max(axis=-1, keepdims=True)
    np.exp(w, out=w)
    sums = w @ np.ones((lk, 1))
    out = (np.matmul(w, vh) / sums).transpose(1, 0, 2).reshape(lq, heads * dv)
    w /= sums
    g = seed.reshape(lq, heads, dv).transpose(1, 0, 2)
    grad_v = np.matmul(w.transpose(0, 2, 1), g).transpose(1, 0, 2).reshape(lk, heads * dv)
    gs = np.matmul(g, vh.transpose(0, 2, 1))
    gs -= (gs * w).sum(axis=-1, keepdims=True)
    gs *= w
    gs *= scale
    grad_q = np.matmul(gs, kh).transpose(1, 0, 2).reshape(lq, heads * dk)
    grad_k = np.matmul(qh.transpose(0, 2, 1), gs).transpose(2, 0, 1).reshape(lk, heads * dk)
    return out, w, grad_q, grad_k, grad_v


def max_shifted_attention(q, k, v, heads):
    """`per_head_attention` (whose softmax shifts by the row max) on arrays."""
    out, w = per_head_attention(Tensor(q), Tensor(k), Tensor(v), heads)
    return out.data, w


def spy_on_rebuilt_weights(monkeypatch):
    """A list that receives the (heads, L_q, L_k) weights each attention
    backward rebuilds from then on."""
    rebuilt = []

    def spy(q, k, heads, _rebuild=tensor.attention_weights):
        rebuilt.append(_rebuild(q, k, heads))
        return rebuilt[-1]

    monkeypatch.setattr(tensor, "attention_weights", spy)
    return rebuilt


def saved_arrays(out):
    """The arrays a recorded node's backward closure holds, other than
    through its parents."""
    bw = out._backward
    return [c.cell_contents for c in bw.__closure__ or () if isinstance(c.cell_contents, np.ndarray)]


def held_after(call):
    """Bytes that stay allocated once `call` has returned, with its result
    and everything that result keeps alive."""
    call()  # warm up numpy's own caches
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    del result
    return held


def per_head_attention(q, k, v, heads):
    """Reference: one 2-D attention per column block, joined with concat."""
    dk, dv = q.shape[1] // heads, v.shape[1] // heads
    outs, weights = [], []
    for h in range(heads):
        qh, kh, vh = q[:, h * dk : (h + 1) * dk], k[:, h * dk : (h + 1) * dk], v[:, h * dv : (h + 1) * dv]
        w = softmax((qh @ kh.transpose()) * (1.0 / math.sqrt(dk)), axis=1)
        outs.append(w @ vh)
        weights.append(w.data)
    return concat(outs, axis=1), np.stack(weights)


def sum_of_squares(y):
    return (y * y).sum()


class TestGradCheck:
    def test_quadratic(self):
        x = Tensor(np.ones(5))
        err = grad_check(lambda t: (t * t).sum(), x)
        assert err < 1e-8

    def test_constant(self):
        x = Tensor(np.ones(3))
        err = grad_check(lambda t: (t * 0.0).sum(), x)
        assert err == 0.0

    def test_attention_softmax_composition(self, rng):
        x = Tensor(rng.standard_normal((2, 2)))
        k = Tensor(rng.standard_normal((2, 2)))
        v = Tensor(rng.standard_normal((2, 2)))

        def f(t):
            out = scaled_dot_product_attention(t, k, v, 1)
            return (softmax(out, 1) * Tensor(np.array([[0.3, 1.7], [0.2, -0.4]]))).sum()

        assert grad_check(f, x, eps=1e-6) < 1e-5

    def test_nonfinite_raises(self):
        x = Tensor(np.zeros(2))
        with pytest.raises(NumericError):
            grad_check(lambda t: (t + np.inf).sum(), x)


@pytest.mark.parametrize("seed", range(10))
def test_grad_check_core_ops_ten_seeds(seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((3, 4)))
    c = Tensor(rng.standard_normal((3, 4)))
    assert grad_check(lambda t: ((t * c).sigmoid() * t).sum(), x) < 1e-5
    assert grad_check(lambda t: (softmax(t, 1) * c).sum(), x) < 1e-5
    m = Tensor(rng.standard_normal((4, 2)))
    assert grad_check(lambda t: sum_of_squares(relu(t @ m)), x) < 1e-5


def masked_divide_sigmoid(x):
    """Reference: the logistic function with one exp and a divide masked to x >= 0."""
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    out = np.asarray(e / d)
    np.divide(1.0, d, out=out, where=x >= 0)
    return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_matches_masked_divide_bit_for_bit(rng, dtype):
    special = [0.0, -0.0, 1e-300, -1e-300, 40.0, -40.0, 700.0, -700.0]
    x = np.concatenate([rng.standard_normal(1000) * 30, rng.uniform(-800, 800, 1000), special]).astype(dtype)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for arr in (x, x.reshape(-1, 8)):
            got, want = sigmoid(arr), masked_divide_sigmoid(arr)
            assert got.dtype == want.dtype == dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def three_exp_sigmoid(x):
    """Reference: the logistic function with one exp per branch and one for the divisor."""
    return np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))), np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_matches_three_exp_oracle_bit_for_bit(rng, dtype):
    special = [0.0, -0.0, np.inf, -np.inf, 1e-300, -1e-300, 800.0, -800.0, np.nan]
    x = np.concatenate([rng.standard_normal(1000) * 30, special]).astype(dtype)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for arr in (x, x.reshape(-1, 1), x[-3].reshape(())):
            got, want = sigmoid(arr), three_exp_sigmoid(arr)
            assert got.dtype == want.dtype == dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


class TestShapeOps:
    def test_reshape_transpose_roundtrip(self, rng):
        x = rng.standard_normal((3, 4, 5))
        t = Tensor(x).reshape(12, 5).transpose()
        assert t.shape == (5, 12)
        err = grad_check(lambda a: sum_of_squares(a.reshape(12, 5).transpose()), Tensor(x))
        assert err < 1e-6

    def test_getitem_with_repeated_indices_adds_once_per_occurrence(self, rng):
        x = Tensor(np.zeros(3), requires_grad=True)
        x[[0, 0, 2]].sum().backward()
        assert np.array_equal(x.grad, [2.0, 0.0, 1.0])
        assert grad_check(lambda t: sum_of_squares(t[[0, 0, 2]]), Tensor(rng.standard_normal(3))) < 1e-6
        assert grad_check(lambda t: sum_of_squares(t[[3, 1, 3], ::2]), Tensor(rng.standard_normal((4, 6)))) < 1e-6

    def test_getitem_and_concat_grads(self, rng):
        x = Tensor(rng.standard_normal((4, 6)))
        assert grad_check(lambda t: sum_of_squares(t[1:3, ::2]), x) < 1e-6
        assert grad_check(lambda t: sum_of_squares(concat([t, t * 2], axis=0)), x) < 1e-6

    def test_mean_and_broadcast(self, rng):
        x = Tensor(rng.standard_normal((3, 5)))
        b = Tensor(rng.standard_normal(5))
        assert grad_check(lambda t: ((t + b) * (t + -2.0)).mean(), x) < 1e-6

    def test_upsample_pool_grads(self, rng):
        x = Tensor(rng.standard_normal((2, 4, 6)))
        assert grad_check(lambda t: sum_of_squares(upsample2x(t)), x) < 1e-5
        assert grad_check(lambda t: sum_of_squares(avg_pool2d(t, (2, 3))), x) < 1e-6

    @pytest.mark.parametrize("shape, k", [((48, 2, 2), 2), ((32, 4, 12), 4), ((64, 16, 8), 8), ((40, 6, 9), 1)])
    def test_pool_is_each_block_slice_mean(self, shape, k, rng):
        # bit for bit the mean of each (C, H/k, W/k) slice, one-column blocks included
        x = rng.standard_normal(shape)
        bh, bw = shape[1] // k, shape[2] // k
        want = np.empty((shape[0], k, k))
        for i in range(k):
            for j in range(k):
                want[:, i, j] = x[:, i * bh : (i + 1) * bh, j * bw : (j + 1) * bw].mean(axis=(1, 2))
        assert np.array_equal(avg_pool2d(Tensor(x), (k, k)).data, want)
        with pytest.raises(ArgumentError, match="does not divide"):
            avg_pool2d(Tensor(x), (k, k + 3))

    def test_matmul_requires_2d(self, rng):
        with pytest.raises(ArgumentError):
            Tensor(rng.standard_normal((2, 3, 4))) @ Tensor(rng.standard_normal((4, 2)))


class TestConv:
    def test_matches_explicit_loops(self, rng):
        x = rng.standard_normal((2, 5, 6))
        w = rng.standard_normal((3, 2, 3, 3))
        b = rng.standard_normal(3)
        y = conv2d(Tensor(x), Tensor(w), Tensor(b), 2, 1).data
        xp = np.pad(x, ((0, 0), (1, 1), (1, 1)))
        ref = np.zeros_like(y)
        for co in range(3):
            for oh in range(y.shape[1]):
                for ow in range(y.shape[2]):
                    acc = b[co]
                    for ci in range(2):
                        for i in range(3):
                            for j in range(3):
                                acc += w[co, ci, i, j] * xp[ci, oh * 2 + i, ow * 2 + j]
                    ref[co, oh, ow] = acc
        assert np.abs(y - ref).max() < 1e-12

    def test_grads(self, rng):
        x = Tensor(rng.standard_normal((2, 6, 6)))
        w = Tensor(rng.standard_normal((3, 2, 3, 3)) * 0.5)
        b = Tensor(rng.standard_normal(3))
        assert grad_check(lambda t: sum_of_squares(conv2d(t, w, b, 1, 1)), x) < 1e-5
        assert grad_check(lambda t: sum_of_squares(conv2d(x, t, b, 2, 1)), w) < 1e-5
        assert grad_check(lambda t: sum_of_squares(conv2d(x, w, t, 2, 1)), b) < 1e-5

    @pytest.mark.parametrize("k, stride, pad", [(3, 2, 1), (3, 2, 0), (1, 1, 0), (1, 2, 0)])
    def test_grads_strided_and_pointwise(self, rng, k, stride, pad):
        x = Tensor(rng.standard_normal((2, 7, 9)))
        w = Tensor(rng.standard_normal((3, 2, k, k)) * 0.5)
        b = Tensor(rng.standard_normal(3))
        assert grad_check(lambda t: sum_of_squares(conv2d(t, w, b, stride, pad)), x) < 1e-5
        assert grad_check(lambda t: sum_of_squares(conv2d(x, t, b, stride, pad)), w) < 1e-5

    @pytest.mark.parametrize("k, stride, pad", [(3, 2, 1), (3, 1, 1), (1, 1, 0)])
    def test_grad_weight_from_rebuilt_columns_equals_fresh_columns(self, rng, k, stride, pad):
        x = Tensor(rng.standard_normal((3, 7, 9)))
        w = Tensor(rng.standard_normal((4, 3, k, k)), requires_grad=True)
        y = conv2d(x, w, Tensor(np.zeros(4)), stride, pad)
        gy = rng.standard_normal(y.shape)
        y.backward(gy)
        fresh = _kernels._im2col(x.data.copy(), k, k, stride, pad)
        assert np.array_equal(y.data, (w.data.reshape(4, -1) @ fresh).reshape(y.shape))
        assert np.array_equal(w.grad, (gy.reshape(4, -1) @ fresh.T).reshape(w.shape))

    @pytest.mark.parametrize("k, stride, pad", [(3, 2, 1), (3, 1, 1), (1, 1, 0)])
    def test_a_recorded_conv_keeps_no_columns(self, rng, k, stride, pad):
        # the 3x3 stride-1 columns of a (16, 48, 64) input are 3.5 MB, nine
        # times the input; the (16, HO, WO) output is at most 393 KB
        x = Tensor(rng.standard_normal((16, 48, 64)), requires_grad=True)
        w = Tensor(rng.standard_normal((16, 16, k, k)), requires_grad=True)
        b = Tensor(np.zeros(16), requires_grad=True)
        y = conv2d(x, w, b, stride, pad)
        assert y.requires_grad and saved_arrays(y) == []
        assert held_after(lambda: conv2d(x, w, b, stride, pad)) < y.data.nbytes + 4096

    def test_channel_mismatch(self, rng):
        w = Tensor(rng.standard_normal((3, 5, 3, 3)))
        with pytest.raises(ArgumentError):
            conv2d(Tensor(rng.standard_normal((2, 4, 4))), w, Tensor(np.zeros(3)), 1, 0)
        with pytest.raises(ArgumentError):  # one bias per output channel
            conv2d(Tensor(rng.standard_normal((5, 4, 4))), w, Tensor(np.zeros(2)), 1, 0)


class TestTapeMechanics:
    def test_tape_freed_after_backward(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = (x * 2.0).sum()
        y.backward()
        assert y._parents == () and y._backward is None
        assert np.allclose(x.grad, 2.0)

    def test_backward_leaves_gradients_only_on_leaves_and_the_root(self, rng):
        w = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        x = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        h = x @ w
        s = h.sigmoid()
        p = s * s
        y = p.sum()
        y.backward()
        for node in (h, s, p):
            assert node.grad is None and node._backward is None and node._parents == ()
        assert y.grad == 1.0 and y._backward is None and y._parents == ()
        sd = sigmoid(x.data @ w.data)
        assert np.allclose(x.grad, (2.0 * sd * sd * (1.0 - sd)) @ w.data.T)
        assert np.allclose(w.grad, x.data.T @ (2.0 * sd * sd * (1.0 - sd)))

    def test_a_node_is_freed_before_the_sweep_reaches_its_parents(self, rng):
        x = Tensor(rng.standard_normal(4), requires_grad=True)
        h = x * 2.0
        p = h * h
        y = p.sum()
        states = []
        backward_of_h = h._backward

        def spy():
            states.append((p.grad, p._backward, p._parents))
            backward_of_h()

        h._backward = spy
        y.backward()
        assert states == [(None, None, ())]
        assert np.array_equal(x.grad, 8.0 * x.data)

    def test_no_grad_blocks_recording(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            y = (x * 2.0).sum()
        assert not y.requires_grad

    def test_backward_needs_scalar_or_seed(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = x * 2.0
        with pytest.raises(ArgumentError):
            y.backward()

    def test_first_gradient_is_a_copy(self, rng):
        # __add__ hands both parents the same array, and reshape's backward a
        # view of its output's gradient; neither may end up shared
        a = Tensor(rng.standard_normal(3), requires_grad=True)
        b = Tensor(rng.standard_normal(3), requires_grad=True)
        y = a + b
        y.backward(np.ones(3))
        assert not np.shares_memory(a.grad, b.grad) and not np.shares_memory(a.grad, y.grad)
        x = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        flat = x.reshape(6)
        flat.backward(np.arange(6.0))
        assert not np.shares_memory(x.grad, flat.grad)
        assert np.array_equal(x.grad, np.arange(6.0).reshape(2, 3))

    def test_bit_determinism_fixed_seed(self):
        def run():
            rng = np.random.default_rng(123)
            x = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
            y = sum_of_squares(softmax(x @ Tensor(rng.standard_normal((4, 4))), 1))
            y.backward()
            return y.data.copy(), x.grad.copy()

        y1, g1 = run()
        y2, g2 = run()
        assert np.array_equal(y1, y2) and np.array_equal(g1, g2)


def test_finite_outputs_after_ops(rng):
    x = Tensor(rng.standard_normal((3, 8)))
    y = softmax((x * 3.0 + 1.0).sigmoid() @ Tensor(rng.standard_normal((8, 2))), 1)
    assert np.isfinite(y.data).all()
