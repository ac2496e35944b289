"""Backbone and mask-feature decoder contracts."""

import numpy as np
import pytest

from rcfvis.errors import ArgumentError
from rcfvis.nn import module_rng
from rcfvis.tensor import Tensor, grad_check
from rcfvis.videonet import Backbone, MaskFeatureDecoder


def make_backbone(seed=0, channels=32):
    return Backbone("backbone", channels, module_rng(seed, "backbone"))


def test_feature_extents_follow_stride(rng):
    bb = make_backbone()
    feat = bb(Tensor(rng.random((3, 16, 24))))
    assert feat.f.shape == (32, 2, 3)
    assert feat.skips[0].shape == (8, 8, 12)
    assert feat.skips[1].shape == (16, 4, 6)


def test_zero_image_deterministic_bias_driven():
    bb = make_backbone()
    a = bb(Tensor(np.zeros((3, 16, 16))))
    b = bb(Tensor(np.zeros((3, 16, 16))))
    assert np.array_equal(a.f.data, b.f.data)
    assert np.isfinite(a.f.data).all()


def test_weight_sharing_target_reference_paths(rng):
    bb = make_backbone()
    img = rng.random((3, 16, 16))
    assert np.array_equal(bb(Tensor(img)).f.data, bb(Tensor(img)).f.data)


def test_indivisible_extent_rejected(rng):
    bb = make_backbone()
    with pytest.raises(ArgumentError):
        bb(Tensor(rng.random((3, 12, 16))))


def test_backbone_gradient_to_first_conv(rng):
    bb = make_backbone(seed=1)
    img = rng.random((3, 8, 8))

    def f(w):
        bb.blocks[0][0].w = w
        return (bb(Tensor(img)).f ** 2).sum()

    assert grad_check(f, bb.blocks[0][0].w, eps=1e-6) < 1e-5


def make_decoder(seed=0):
    bb = make_backbone(seed)
    dec = MaskFeatureDecoder("dec", 24, bb.skip_channels, 16, module_rng(seed, "dec"))
    return bb, dec


def test_decoder_output_extents(rng):
    bb, dec = make_decoder()
    feat = bb(Tensor(rng.random((3, 16, 24))))
    fused = Tensor(rng.standard_normal((24, 2, 3)))
    out = dec(fused, feat.skips)
    assert out.values.shape == (16, 8, 12)


def test_decoder_zero_inputs_bias_driven(rng):
    bb, dec = make_decoder()
    zero_skips = (Tensor(np.zeros((8, 8, 12))), Tensor(np.zeros((16, 4, 6))))
    a = dec(Tensor(np.zeros((24, 2, 3))), zero_skips)
    b = dec(Tensor(np.zeros((24, 2, 3))), zero_skips)
    assert np.array_equal(a.values.data, b.values.data)
    for conv in (dec.lat1, dec.ref1, dec.lat2, dec.ref2, dec.out):
        conv.b.data[:] = 0.0
    c = dec(Tensor(np.zeros((24, 2, 3))), zero_skips)
    assert np.abs(c.values.data).max() == 0.0


def test_decoder_skip_shape_mismatch(rng):
    bb, dec = make_decoder()
    bad_skips = (Tensor(rng.random((8, 6, 12))), Tensor(rng.random((16, 4, 6))))
    with pytest.raises(ArgumentError):
        dec(Tensor(rng.random((24, 2, 3))), bad_skips)


def test_decoder_end_to_end_gradient(rng):
    bb, dec = make_decoder(seed=4)
    feat = bb(Tensor(rng.random((3, 8, 8))))
    skips = tuple(Tensor(s.data) for s in feat.skips)
    fused = Tensor(rng.standard_normal((24, 1, 1)))
    assert grad_check(lambda t: (dec(t, skips).values ** 2).sum(), fused) < 1e-5
