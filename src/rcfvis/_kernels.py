"""Hot numeric kernels: 2-D convolution forward and both backward passes.

These inner loops dominate training time.  Each pass is a numpy contraction
per kernel offset (kh, kw): one ``tensordot`` over channels against a
strided view of the padded input.  ``benchmarks/run.py`` reports their
time as the ``kernels.conv`` layer.
"""

from __future__ import annotations

import numpy as np


def _forward(xp, w, stride):
    co, ci, kh, kw = w.shape
    hp, wp = xp.shape[1], xp.shape[2]
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1
    y = np.zeros((co, ho, wo), dtype=xp.dtype)
    for i in range(kh):
        for j in range(kw):
            patch = xp[:, i : i + stride * ho : stride, j : j + stride * wo : stride]
            y += np.tensordot(w[:, :, i, j], patch, axes=(1, 0))
    return y


def _grad_input(gy, w, xp_shape, stride):
    co, ci, kh, kw = w.shape
    ho, wo = gy.shape[1], gy.shape[2]
    gxp = np.zeros(xp_shape, dtype=gy.dtype)
    for i in range(kh):
        for j in range(kw):
            # gxp[ci, i+s*ho, j+s*wo] += sum_co w[co,ci,i,j] * gy[co,ho,wo]
            contrib = np.tensordot(w[:, :, i, j], gy, axes=(0, 0))
            gxp[:, i : i + stride * ho : stride, j : j + stride * wo : stride] += contrib
    return gxp


def _grad_weight(gy, xp, kshape, stride):
    co, ci, kh, kw = kshape
    ho, wo = gy.shape[1], gy.shape[2]
    gw = np.zeros(kshape, dtype=gy.dtype)
    for i in range(kh):
        for j in range(kw):
            patch = xp[:, i : i + stride * ho : stride, j : j + stride * wo : stride]
            gw[:, :, i, j] = np.tensordot(gy, patch, axes=((1, 2), (1, 2)))
    return gw


# ---------------------------------------------------------------------------
# public entry points (padding applied here, kernels see padded arrays)


def _pad(x, pad):
    if pad == 0:
        return x
    return np.pad(x, ((0, 0), (pad, pad), (pad, pad)))


def conv2d_forward(x: np.ndarray, w: np.ndarray, stride: int = 1, pad: int = 0) -> np.ndarray:
    """Convolve x (C,H,W) with w (CO,CI,KH,KW); returns (CO,HO,WO)."""
    return _forward(_pad(x, pad), w, stride)


def conv2d_grad_input(gy: np.ndarray, w: np.ndarray, x_shape: tuple, stride: int = 1, pad: int = 0) -> np.ndarray:
    """Gradient of conv2d_forward w.r.t. x, given upstream gy (CO,HO,WO)."""
    c, h, wd = x_shape
    gxp = _grad_input(gy, w, (c, h + 2 * pad, wd + 2 * pad), stride)
    if pad == 0:
        return gxp
    return gxp[:, pad : pad + h, pad : pad + wd]


def conv2d_grad_weight(gy: np.ndarray, x: np.ndarray, kshape: tuple, stride: int = 1, pad: int = 0) -> np.ndarray:
    """Gradient of conv2d_forward w.r.t. w."""
    return _grad_weight(gy, _pad(x, pad), kshape, stride)
