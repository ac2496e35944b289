"""Instance decoding, classification, dynamic-convolution masks."""

import numpy as np
import pytest

from rcfvis.errors import ArgumentError
from rcfvis.instance_head import InstanceHead
from rcfvis.nn import module_rng
from rcfvis.tensor import Tensor, grad_check


def make_head(seed=0, c_tok=16, c_code=12, c_seg=6, n=5, classes=3, heads=4, depth=2):
    return InstanceHead("head", c_tok, c_code, c_seg, n, classes, heads, depth, module_rng(seed, "head"))


def test_code_shape_for_any_memory_length(rng):
    head = make_head()
    for length in (3, 17, 50):
        code = head.decode(Tensor(rng.standard_normal((length, 16))))
        assert code.shape == (5, 12)


def test_stateless_decode(rng):
    head = make_head()
    memory = rng.standard_normal((20, 16))
    a = head.decode(Tensor(memory.copy()))
    b = head.decode(Tensor(memory.copy()))
    assert np.array_equal(a.data, b.data)


class TestClassHead:
    def test_zero_code_zero_head_uniform(self):
        head = make_head(seed=2)
        head.class_head.w.data[:] = 0.0
        head.class_head.b.data[:] = 0.0
        probs = head.predict_class(Tensor(np.zeros((5, 12))))
        assert np.abs(probs.data - 0.25).max() < 1e-12

    def test_rows_sum_to_one(self, rng):
        head = make_head(seed=3)
        code = head.decode(Tensor(rng.standard_normal((8, 16))))
        probs = head.predict_class(code)
        assert np.abs(probs.data.sum(axis=1) - 1.0).max() < 1e-9

    def test_argmax_shift_invariant(self, rng):
        head = make_head(seed=4)
        e = Tensor(rng.standard_normal((5, 12)))
        base = np.argmax(head.predict_class(e).data, axis=1)
        head.class_head.b.data += 2.5  # constant added to every logit
        shifted = np.argmax(head.predict_class(e).data, axis=1)
        assert np.array_equal(base, shifted)


class TestDynamicMasks:
    def test_zero_filter_column_zero_mask(self, rng):
        head = make_head(seed=5)
        head.theta_fc2.w.data[:] = 0.0
        head.theta_fc2.b.data[:] = 0.0
        seg = Tensor(rng.standard_normal((6, 4, 4)))
        masks = head.dynamic_masks(Tensor(rng.standard_normal((5, 12))), seg)
        assert np.abs(masks.data).max() == 0.0

    def test_linearity_in_segmentation_map(self, rng):
        head = make_head(seed=6)
        code = Tensor(rng.standard_normal((5, 12)))
        s1 = rng.standard_normal((6, 4, 4))
        s2 = rng.standard_normal((6, 4, 4))
        m1 = head.dynamic_masks(code, Tensor(s1)).data
        m2 = head.dynamic_masks(code, Tensor(s2)).data
        m12 = head.dynamic_masks(code, Tensor(s1 + s2)).data
        assert np.abs(m12 - (m1 + m2)).max() < 1e-9

    def test_matches_naive_triple_loop(self, rng):
        head = make_head(seed=7)
        e = rng.standard_normal((5, 12))
        s = rng.standard_normal((6, 4, 3))
        masks = head.dynamic_masks(Tensor(e), Tensor(s)).data
        hidden = np.maximum(e @ head.theta_fc1.w.data + head.theta_fc1.b.data, 0.0)
        theta = hidden @ head.theta_fc2.w.data + head.theta_fc2.b.data  # (N, C_o)
        ref = np.zeros((5, 4, 3))
        for n in range(5):
            for y in range(4):
                for x in range(3):
                    acc = 0.0
                    for c in range(6):
                        acc += theta[n, c] * s[c, y, x]
                    ref[n, y, x] = acc
        assert np.abs(masks - ref).max() < 1e-12

    def test_channel_mismatch_rejected(self, rng):
        head = make_head(seed=8)
        with pytest.raises(ArgumentError):
            head.dynamic_masks(
                Tensor(rng.standard_normal((5, 12))),
                Tensor(rng.standard_normal((7, 4, 4))),
            )


def test_slot_permutation_equivariance(rng):
    head = make_head(seed=9)
    memory = Tensor(rng.standard_normal((11, 16)))
    seg = Tensor(rng.standard_normal((6, 4, 4)))
    code = head.decode(memory)
    probs = head.predict_class(code).data
    masks = head.dynamic_masks(code, seg).data

    perm = rng.permutation(5)
    head.query.data = head.query.data[perm]
    code_p = head.decode(memory)
    probs_p = head.predict_class(code_p).data
    masks_p = head.dynamic_masks(code_p, seg).data
    assert np.abs(probs_p - probs[perm]).max() < 1e-9
    assert np.abs(masks_p - masks[perm]).max() < 1e-9


def test_full_head_gradient(rng):
    head = make_head(seed=10, depth=1, c_tok=8, heads=2, c_code=6, c_seg=4, n=3, classes=2)
    seg_values = rng.standard_normal((4, 2, 2))
    memory = Tensor(rng.standard_normal((5, 8)))

    def f(mem):
        code = head.decode(mem)
        probs = head.predict_class(code)
        masks = head.dynamic_masks(code, Tensor(seg_values))
        return (probs * probs).sum() + (masks.sigmoid()).sum()

    assert grad_check(f, memory, eps=1e-6) < 1e-5
