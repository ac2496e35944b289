"""Autodiff core: op correctness, gradient oracle, softmax/attention contracts."""

import math

import numpy as np
import pytest

from rcfvis.errors import ArgumentError, NumericError
from rcfvis.tensor import (
    Tensor,
    adaptive_avg_pool2d,
    concat,
    conv2d,
    grad_check,
    no_grad,
    scaled_dot_product_attention,
    set_strict_finite,
    softmax,
    stack,
    upsample2x,
)

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
        out, w = scaled_dot_product_attention(q, k, v, 1)
        assert np.allclose(out.data, np.repeat(v.data, 4, axis=0))
        assert w.shape == (1, 4, 1) and np.allclose(w[0], 1.0)

    def test_zero_logits_average_values(self, rng):
        q = Tensor(np.zeros((2, 3)))
        k = Tensor(rng.standard_normal((5, 3)))
        v = Tensor(rng.standard_normal((5, 4)))
        out, w = scaled_dot_product_attention(Tensor(np.zeros((2, 3))), Tensor(np.zeros((5, 3))), v, 1)
        assert np.allclose(out.data, v.data.mean(axis=0), atol=1e-12)

    def test_matches_naive_double_loop(self, rng):
        q, k, v = (rng.standard_normal((3, 4)) for _ in range(3))
        out, w = scaled_dot_product_attention(Tensor(q), Tensor(k), Tensor(v), 1)
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
        out, w = scaled_dot_product_attention(q, Tensor(k), Tensor(v), 1)
        out_p, w_p = scaled_dot_product_attention(q, Tensor(k[perm]), Tensor(v[perm]), 1)
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
        for attend in (scaled_dot_product_attention, per_head_attention):
            q, k, v = (Tensor(a.copy(), requires_grad=True) for a in (q0, k0, v0))
            out, w = attend(q, k, v, heads)
            out.backward(seed)
            results.append((out.data, w, q.grad, k.grad, v.grad))
        for fused, oracle in zip(*results):
            assert fused.shape == oracle.shape
            assert np.abs(fused - oracle).max() < 1e-12

    @pytest.mark.parametrize("arg", [0, 1, 2])
    def test_grad_check_each_input(self, rng, arg):
        qkv = [rng.standard_normal((3, 4)), rng.standard_normal((5, 4)), rng.standard_normal((5, 6))]
        c = Tensor(rng.standard_normal((3, 6)))

        def f(t):
            args = [Tensor(a) for a in qkv]
            args[arg] = t
            out, _ = scaled_dot_product_attention(*args, 2)
            return (out * c).sum()

        assert grad_check(f, Tensor(qkv[arg])) < 1e-6

    def test_no_grad_records_no_parents(self, rng):
        q, k, v = (Tensor(rng.standard_normal((3, 4)), requires_grad=True) for _ in range(3))
        with no_grad():
            out, _ = scaled_dot_product_attention(q, k, v, 2)
        assert not out.requires_grad and out._parents == ()

    def test_strict_finite_raises(self):
        prev = set_strict_finite(True)
        try:
            big = Tensor(np.full((2, 2), 1e300))
            with pytest.raises(NumericError), np.errstate(over="ignore", invalid="ignore"):
                scaled_dot_product_attention(big, big, big, 2)
        finally:
            set_strict_finite(prev)

    def test_depth_must_split_into_heads(self, rng):
        q, k = Tensor(rng.standard_normal((2, 6))), Tensor(rng.standard_normal((3, 6)))
        with pytest.raises(ArgumentError):
            scaled_dot_product_attention(q, k, Tensor(rng.standard_normal((3, 6))), 4)
        with pytest.raises(ArgumentError):
            scaled_dot_product_attention(q, k, Tensor(rng.standard_normal((3, 5))), 2)


def per_head_attention(q, k, v, heads):
    """Reference: one 2-D attention per column block, joined with concat."""
    dk, dv = q.shape[1] // heads, v.shape[1] // heads
    outs, weights = [], []
    for h in range(heads):
        qh, kh, vh = q[:, h * dk : (h + 1) * dk], k[:, h * dk : (h + 1) * dk], v[:, h * dv : (h + 1) * dv]
        w = softmax((qh @ kh.T) * (1.0 / math.sqrt(dk)), axis=1)
        outs.append(w @ vh)
        weights.append(w.data)
    return concat(outs, axis=1), np.stack(weights)


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
            out, _ = scaled_dot_product_attention(t, k, v, 1)
            return (softmax(out, 1) * Tensor(np.array([[0.3, 1.7], [0.2, -0.4]]))).sum()

        assert grad_check(f, x, eps=1e-6) < 1e-5

    def test_nonfinite_raises(self):
        x = Tensor(np.zeros(2))
        with np.errstate(divide="ignore"), pytest.raises(NumericError):
            grad_check(lambda t: (t.log()).sum(), x)


@pytest.mark.parametrize("seed", range(10))
def test_grad_check_core_ops_ten_seeds(seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((3, 4)))
    c = Tensor(rng.standard_normal((3, 4)))
    assert grad_check(lambda t: ((t * c).sigmoid() * t.tanh()).sum(), x) < 1e-5
    assert grad_check(lambda t: (softmax(t, 1) * c).sum(), x) < 1e-5
    m = Tensor(rng.standard_normal((4, 2)))
    assert grad_check(lambda t: ((t @ m).relu() ** 2).sum(), x) < 1e-5


class TestShapeOps:
    def test_reshape_transpose_roundtrip(self, rng):
        x = rng.standard_normal((3, 4, 5))
        t = Tensor(x).reshape(12, 5).transpose()
        assert t.shape == (5, 12)
        err = grad_check(lambda a: (a.reshape(12, 5).transpose() ** 2).sum(), Tensor(x))
        assert err < 1e-6

    def test_getitem_and_concat_grads(self, rng):
        x = Tensor(rng.standard_normal((4, 6)))
        assert grad_check(lambda t: (t[1:3, ::2] ** 2).sum(), x) < 1e-6
        assert grad_check(lambda t: (concat([t, t * 2], axis=0) ** 2).sum(), x) < 1e-6
        assert grad_check(lambda t: (stack([t, t + 1], axis=1) ** 2).sum(), x) < 1e-6

    def test_mean_and_broadcast(self, rng):
        x = Tensor(rng.standard_normal((3, 5)))
        b = Tensor(rng.standard_normal(5))
        assert grad_check(lambda t: ((t + b) * (t - 2.0)).mean(), x) < 1e-6

    def test_upsample_pool_grads(self, rng):
        x = Tensor(rng.standard_normal((2, 4, 6)))
        assert grad_check(lambda t: (upsample2x(t) ** 2).sum(), x) < 1e-5
        assert grad_check(lambda t: (adaptive_avg_pool2d(t, (2, 3)) ** 2).sum(), x) < 1e-6

    def test_matmul_requires_2d(self, rng):
        with pytest.raises(ArgumentError):
            Tensor(rng.standard_normal((2, 3, 4))) @ Tensor(rng.standard_normal((4, 2)))


class TestConv:
    def test_matches_explicit_loops(self, rng):
        x = rng.standard_normal((2, 5, 6))
        w = rng.standard_normal((3, 2, 3, 3))
        y = conv2d(Tensor(x), Tensor(w), stride=2, pad=1).data
        xp = np.pad(x, ((0, 0), (1, 1), (1, 1)))
        ref = np.zeros_like(y)
        for co in range(3):
            for oh in range(y.shape[1]):
                for ow in range(y.shape[2]):
                    acc = 0.0
                    for ci in range(2):
                        for i in range(3):
                            for j in range(3):
                                acc += w[co, ci, i, j] * xp[ci, oh * 2 + i, ow * 2 + j]
                    ref[co, oh, ow] = acc
        assert np.abs(y - ref).max() < 1e-12

    def test_grads(self, rng):
        x = Tensor(rng.standard_normal((2, 6, 6)))
        w = Tensor(rng.standard_normal((3, 2, 3, 3)) * 0.5)
        assert grad_check(lambda t: (conv2d(t, w, stride=1, pad=1) ** 2).sum(), x) < 1e-5
        assert grad_check(lambda t: (conv2d(x, t, stride=2, pad=1) ** 2).sum(), w) < 1e-5

    def test_channel_mismatch(self, rng):
        with pytest.raises(ArgumentError):
            conv2d(Tensor(rng.standard_normal((2, 4, 4))), Tensor(rng.standard_normal((3, 5, 3, 3))))


class TestTapeMechanics:
    def test_tape_freed_after_backward(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = (x * 2.0).sum()
        y.backward()
        assert y._parents == () and y._backward is None
        assert np.allclose(x.grad, 2.0)

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

    def test_strict_finite_mode(self):
        prev = set_strict_finite(True)
        try:
            with np.errstate(divide="ignore"), pytest.raises(NumericError):
                Tensor(np.array([1.0, 0.0])).log()
            out = (Tensor(np.ones(4)) * 2.0).exp()
            assert np.isfinite(out.data).all()
        finally:
            set_strict_finite(prev)

    def test_bit_determinism_fixed_seed(self):
        def run():
            rng = np.random.default_rng(123)
            x = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
            y = (softmax(x @ Tensor(rng.standard_normal((4, 4))), 1) ** 2).sum()
            y.backward()
            return y.data.copy(), x.grad.copy()

        y1, g1 = run()
        y2, g2 = run()
        assert np.array_equal(y1, y2) and np.array_equal(g1, g2)


def test_finite_outputs_after_ops(rng):
    prev = set_strict_finite(True)
    try:
        x = Tensor(rng.standard_normal((3, 8)))
        y = softmax((x * 3.0 + 1.0).tanh() @ Tensor(rng.standard_normal((8, 2))), 1)
        assert np.isfinite(y.data).all()
    finally:
        set_strict_finite(prev)
