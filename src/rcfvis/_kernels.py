"""Hot numeric kernels: 2-D convolution forward and both backward passes.

Each pass is one matrix product on im2col columns (Chellapilla et al.,
2006).  `_im2col` builds a contiguous ``(C_in·KH·KW, HO·WO)`` column matrix
from KH·KW strided slice copies of the padded input; a pointwise conv uses
the input itself.  The forward and the grad-weight product each build their
own columns from x, so that a recorded conv keeps x rather than a column
matrix KH·KW times its size (gradient checkpointing, Chen et al., 2016).
Grad-input multiplies by the transposed weights and scatters the product
back with KH·KW strided adds (col2im).  All column work happens inside
these three entry points, which ``benchmarks/run.py`` times as the
``kernels.conv`` layer.

Each kernel returns the dtype of its input array (x, or gy for the
backward passes).
"""

from __future__ import annotations

import numpy as np


def _is_pointwise(kh: int, kw: int, stride: int, pad: int) -> bool:
    """A 1×1 stride-1 unpadded conv: its columns are the input itself."""
    return kh == kw == stride == 1 and pad == 0


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, pad: int) -> np.ndarray:
    """The (C·KH·KW, HO·WO) column matrix of x (C,H,W) for a KH×KW kernel."""
    c, h, wd = x.shape
    if _is_pointwise(kh, kw, stride, pad):
        return x.reshape(c, h * wd)
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (wd + 2 * pad - kw) // stride + 1
    xp = x
    if pad:
        xp = np.zeros((c, h + 2 * pad, wd + 2 * pad), dtype=x.dtype)
        xp[:, pad : pad + h, pad : pad + wd] = x
    blocks = np.empty((c, kh, kw, ho, wo), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            blocks[:, i, j] = xp[:, i : i + stride * ho : stride, j : j + stride * wo : stride]
    return blocks.reshape(c * kh * kw, ho * wo)


def conv2d_forward(x: np.ndarray, w: np.ndarray, stride: int, pad: int) -> np.ndarray:
    """Convolve x (C,H,W) with w (CO,CI,KH,KW) into y (CO,HO,WO)."""
    co, _, kh, kw = w.shape
    _, h, wd = x.shape
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (wd + 2 * pad - kw) // stride + 1
    y = w.reshape(co, -1) @ _im2col(x, kh, kw, stride, pad)
    return y.astype(x.dtype, copy=False).reshape(co, ho, wo)


def conv2d_grad_input(gy: np.ndarray, w: np.ndarray, x_shape: tuple, stride: int, pad: int) -> np.ndarray:
    """Gradient of conv2d_forward w.r.t. x, given upstream gy (CO,HO,WO)."""
    co, _, kh, kw = w.shape
    c, h, wd = x_shape
    ho, wo = gy.shape[1], gy.shape[2]
    g = (w.reshape(co, -1).T @ gy.reshape(co, -1)).astype(gy.dtype, copy=False)
    if _is_pointwise(kh, kw, stride, pad):
        return g.reshape(x_shape)
    g = g.reshape(c, kh, kw, ho, wo)
    gxp = np.zeros((c, h + 2 * pad, wd + 2 * pad), dtype=gy.dtype)
    for i in range(kh):
        for j in range(kw):
            gxp[:, i : i + stride * ho : stride, j : j + stride * wo : stride] += g[:, i, j]
    return gxp[:, pad : pad + h, pad : pad + wd]


def conv2d_grad_weight(gy: np.ndarray, x: np.ndarray, kshape: tuple, stride: int, pad: int) -> np.ndarray:
    """Gradient of conv2d_forward w.r.t. w, given upstream gy (CO,HO,WO) and
    the forward's input x: the columns are rebuilt from x, bit for bit the
    forward's."""
    cols = _im2col(x, kshape[2], kshape[3], stride, pad)
    gw = gy.reshape(kshape[0], -1) @ cols.T
    return gw.astype(gy.dtype, copy=False).reshape(kshape)
