"""The conv kernels against a direct-loop oracle, and their adjoint relation."""

import numpy as np

from rcfvis import _kernels


def _loop_forward(xp, w, stride):
    co, ci, kh, kw = w.shape
    ho = (xp.shape[1] - kh) // stride + 1
    wo = (xp.shape[2] - kw) // stride + 1
    y = np.zeros((co, ho, wo))
    for oc in range(co):
        for oh in range(ho):
            for ow in range(wo):
                acc = 0.0
                for c in range(ci):
                    for i in range(kh):
                        for j in range(kw):
                            acc += w[oc, c, i, j] * xp[c, oh * stride + i, ow * stride + j]
                y[oc, oh, ow] = acc
    return y


def _loop_grad_input(gy, w, hp, wp, stride):
    co, ci, kh, kw = w.shape
    gxp = np.zeros((ci, hp, wp))
    for oc in range(co):
        for oh in range(gy.shape[1]):
            for ow in range(gy.shape[2]):
                g = gy[oc, oh, ow]
                for c in range(ci):
                    for i in range(kh):
                        for j in range(kw):
                            gxp[c, oh * stride + i, ow * stride + j] += w[oc, c, i, j] * g
    return gxp


def _loop_grad_weight(gy, xp, kshape, stride):
    co, ci, kh, kw = kshape
    gw = np.zeros(kshape)
    for oc in range(co):
        for oh in range(gy.shape[1]):
            for ow in range(gy.shape[2]):
                g = gy[oc, oh, ow]
                for c in range(ci):
                    for i in range(kh):
                        for j in range(kw):
                            gw[oc, c, i, j] += g * xp[c, oh * stride + i, ow * stride + j]
    return gw


def test_matches_direct_loop_oracle_forward_and_backward(rng):
    for stride in (1, 2):
        for pad in (0, 1):
            x = rng.standard_normal((3, 8, 10))
            w = rng.standard_normal((4, 3, 3, 3))
            xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))

            y = _kernels.conv2d_forward(x, w, stride, pad)
            assert np.abs(y - _loop_forward(xp, w, stride)).max() < 1e-10

            gy = rng.standard_normal(y.shape)
            gx = _kernels.conv2d_grad_input(gy, w, x.shape, stride, pad)
            gxp = _loop_grad_input(gy, w, xp.shape[1], xp.shape[2], stride)
            assert np.abs(gx - gxp[:, pad : pad + x.shape[1], pad : pad + x.shape[2]]).max() < 1e-10

            gw = _kernels.conv2d_grad_weight(gy, x, w.shape, stride, pad)
            assert np.abs(gw - _loop_grad_weight(gy, xp, w.shape, stride)).max() < 1e-10


def test_grad_input_is_adjoint_of_forward(rng):
    # <conv(x), y> == <x, conv^T(y)>
    x = rng.standard_normal((2, 6, 7))
    w = rng.standard_normal((3, 2, 3, 3))
    for stride, pad in ((1, 1), (2, 0)):
        y = _kernels.conv2d_forward(x, w, stride, pad)
        g = rng.standard_normal(y.shape)
        lhs = float((y * g).sum())
        xt = _kernels.conv2d_grad_input(g, w, x.shape, stride, pad)
        rhs = float((x * xt).sum())
        assert abs(lhs - rhs) < 1e-10
