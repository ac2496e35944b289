"""The conv kernels against a direct-loop oracle, their adjoint relation and
dtypes, and the guard that keeps all conv work inside the three entry points."""

import ast
import itertools
from pathlib import Path

import numpy as np
import pytest

from rcfvis import _kernels
from rcfvis.tensor import Tensor, conv2d

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rcfvis"


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
    # both strides and paddings, 1x1 and 3x3 kernels, and odd extents whose
    # last row or column a stride-2 kernel skips
    for k, stride, pad, extent in itertools.product((1, 3), (1, 2), (0, 1), ((8, 10), (7, 9), (5, 6))):
        x = rng.standard_normal((3, *extent))
        w = rng.standard_normal((4, 3, k, k))
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


@pytest.mark.parametrize("k, stride, pad", [(3, 2, 1), (3, 1, 1), (1, 1, 0)])
def test_float32_in_float32_out(rng, k, stride, pad):
    x = rng.standard_normal((3, 7, 9)).astype(np.float32)
    w = rng.standard_normal((4, 3, k, k)).astype(np.float32)
    y = _kernels.conv2d_forward(x, w, stride, pad)
    gy = rng.standard_normal(y.shape).astype(np.float32)
    assert y.dtype == _kernels._im2col(x, k, k, stride, pad).dtype == np.float32
    assert _kernels.conv2d_grad_input(gy, w, x.shape, stride, pad).dtype == np.float32
    assert _kernels.conv2d_grad_weight(gy, x, w.shape, stride, pad).dtype == np.float32


ENTRY_POINTS = ("conv2d_forward", "conv2d_grad_input", "conv2d_grad_weight")


def test_a_recorded_conv_calls_each_entry_point_once(rng, monkeypatch):
    # The benchmark times these three names as the `kernels.conv` layer; all
    # conv work, column building included, must run inside them.
    calls = dict.fromkeys(ENTRY_POINTS, 0)
    for name in ENTRY_POINTS:
        def counted(*args, _f=getattr(_kernels, name), _name=name):
            calls[_name] += 1
            return _f(*args)

        monkeypatch.setattr(_kernels, name, counted)
    x = Tensor(rng.standard_normal((2, 7, 9)), requires_grad=True)
    w = Tensor(rng.standard_normal((3, 2, 3, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal(3), requires_grad=True)
    conv2d(x, w, b, 2, 1).sum().backward()
    assert calls == dict.fromkeys(ENTRY_POINTS, 1)


@pytest.mark.parametrize("module", ["tensor", "analysis"])
def test_kernel_callers_name_only_the_entry_points(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    used = {
        n.attr
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == "_kernels"
    }
    assert used and used <= set(ENTRY_POINTS)
