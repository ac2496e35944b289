"""Backbone and mask-feature decoder contracts."""

import numpy as np
import pytest

from rcfvis.errors import ArgumentError
from rcfvis.nn import GroupNormReLU, module_rng
from rcfvis.tensor import Tensor, grad_check, upsample2x
from rcfvis.videonet import Backbone, MaskFeatureDecoder

from test_fused_ops import relu  # the ReLU as its own tape node


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


@pytest.mark.parametrize("channels", [8, 12, 20, 36])
def test_channels_off_the_group_norm_grid_rejected(channels):
    # block 0 has channels / 4 channels, which must split into 4 norm groups
    with pytest.raises(ArgumentError, match="multiple of 16"):
        make_backbone(channels=channels)


def test_group_norm_channels_must_divide_into_groups():
    with pytest.raises(ArgumentError, match="6 channels do not divide into 4 groups"):
        GroupNormReLU("norm", 4, 6)
    assert GroupNormReLU("norm", 4, 8).gain.shape == (8, 1, 1)


def test_backbone_gradient_to_first_conv(rng):
    bb = make_backbone(seed=1)
    img = rng.random((3, 8, 8))

    def f(w):
        bb.blocks[0][0].w = w
        y = bb(Tensor(img)).f
        return (y * y).sum()

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
    assert out.shape == (16, 8, 12)


def test_decoder_zero_inputs_bias_driven(rng):
    bb, dec = make_decoder()
    zero_skips = (Tensor(np.zeros((8, 8, 12))), Tensor(np.zeros((16, 4, 6))))
    a = dec(Tensor(np.zeros((24, 2, 3))), zero_skips)
    b = dec(Tensor(np.zeros((24, 2, 3))), zero_skips)
    assert np.array_equal(a.data, b.data)
    for conv in (dec.lat1, dec.ref1, dec.lat2, dec.ref2, dec.out):
        conv.b.data[:] = 0.0
    c = dec(Tensor(np.zeros((24, 2, 3))), zero_skips)
    assert np.abs(c.data).max() == 0.0


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

    def f(t):
        y = dec(t, skips)
        return (y * y).sum()

    assert grad_check(f, fused) < 1e-5


def old_order_decoder(dec, fused, skips):
    """Reference: each 1x1 lateral after its upsample, the decoder's former
    order, and each ReLU its own node."""
    skip1, skip2 = skips
    x = relu(dec.ref1(dec.lat1(upsample2x(fused)) + skip2))
    x = relu(dec.ref2(dec.lat2(upsample2x(x)) + skip1))
    return dec.out(x)


@pytest.mark.parametrize("hw", [(16, 24), (64, 96)])
def test_laterals_before_upsample_match_former_order(rng, hw):
    bb, dec = make_decoder(seed=2)
    feat = bb(Tensor(rng.random((3, *hw))))
    skips = tuple(Tensor(s.data, requires_grad=True) for s in feat.skips)
    fused0 = rng.standard_normal((24, hw[0] // 8, hw[1] // 8))
    seed = rng.standard_normal((16, hw[0] // 2, hw[1] // 2))
    results = []
    for decode in (lambda f, s: dec(f, s), lambda f, s: old_order_decoder(dec, f, s)):
        fused = Tensor(fused0.copy(), requires_grad=True)
        for p in dec.params().values():
            p.grad = None
        out = decode(fused, skips)
        out.backward(seed)
        grads = [fused.grad, *(s.grad.copy() for s in skips), *(p.grad for p in dec.params().values())]
        for s in skips:
            s.grad = None
        results.append((out.data, grads))
    (new, new_grads), (old, old_grads) = results
    assert np.array_equal(new, old)
    for got, want in zip(new_grads, old_grads):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
