"""Dense tensors with reverse-mode differentiation on a dynamic tape.

Every array in the pipeline lives in a ``Tensor``: float64 by default so
finite-difference checks are decisive, float32 available for speed.  The
tape is a per-result closure graph, freed after each ``backward()``.
Convolution forward/backward run through the kernels in ``_kernels``.
Multi-head attention is a single node with an analytic backward: heads
run as batched (heads, L, d) products over views of Q, K and V; the forward
walks them in groups whose weights fit in L2 (see `_ATTN_TILE_BYTES`).
"""

from __future__ import annotations

import math
import os
from typing import Callable, Sequence

import numpy as np

from . import _kernels
from .errors import ArgumentError, NumericError

_GRAD_ENABLED = True
_STRICT_FINITE = bool(os.environ.get("RCFVIS_STRICT_FINITE"))


def set_strict_finite(enabled: bool) -> bool:
    """Toggle per-operation finiteness checks; returns the previous setting."""
    global _STRICT_FINITE
    prev = _STRICT_FINITE
    _STRICT_FINITE = bool(enabled)
    return prev


class no_grad:
    """Context manager disabling tape recording (inference fast path)."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum gradient g down to `shape` (inverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    axes = tuple(i for i, (gs, s) in enumerate(zip(g.shape, shape)) if s == 1 and gs > 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function in a form whose exp never overflows.

    With e = exp(-|x|): 1 / (1 + e) where x >= 0, else e / (1 + e); one exp
    for both branches.
    """
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    out = np.asarray(e / d)
    np.divide(1.0, d, out=out, where=x >= 0)
    return out


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._backward: Callable[[], None] | None = None

    # -- construction -------------------------------------------------------

    @staticmethod
    def _from_op(data: np.ndarray, parents: Sequence["Tensor"], backward: Callable[["Tensor"], None]):
        out = Tensor(data)
        if _GRAD_ENABLED and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        if _STRICT_FINITE and not np.isfinite(out.data).all():
            raise NumericError("non-finite value produced by tensor operation")
        return out

    # -- basic protocol ------------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def numpy(self) -> np.ndarray:
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def _accum(self, g: np.ndarray):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    # -- autodiff ------------------------------------------------------------

    def backward(self, seed: np.ndarray | None = None):
        """Reverse sweep from this tensor; frees the tape afterwards."""
        if seed is None:
            if self.data.size != 1:
                raise ArgumentError("backward() without seed requires a scalar output")
            seed = np.ones_like(self.data)
        topo: list[Tensor] = []
        seen = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.asarray(seed, dtype=self.data.dtype).reshape(self.data.shape).copy()
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward()
        # free the tape: intermediate nodes drop their closures and parents
        for node in topo:
            node._parents = ()
            node._backward = None

    # -- arithmetic ----------------------------------------------------------

    @staticmethod
    def _lift(x) -> "Tensor":
        return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))

    def __add__(self, other):
        other = Tensor._lift(other)
        out_data = self.data + other.data

        def bw(a=self, b=other):
            g = out.grad
            if a.requires_grad:
                a._accum(_unbroadcast(g, a.data.shape))
            if b.requires_grad:
                b._accum(_unbroadcast(g, b.data.shape))

        out = Tensor._from_op(out_data, (self, other), bw)
        return out

    __radd__ = __add__

    def __neg__(self):
        def bw(a=self):
            if a.requires_grad:
                a._accum(-out.grad)

        out = Tensor._from_op(-self.data, (self,), bw)
        return out

    def __sub__(self, other):
        return self + (-Tensor._lift(other))

    def __rsub__(self, other):
        return Tensor._lift(other) + (-self)

    def __mul__(self, other):
        other = Tensor._lift(other)
        out_data = self.data * other.data

        def bw(a=self, b=other):
            g = out.grad
            if a.requires_grad:
                a._accum(_unbroadcast(g * b.data, a.data.shape))
            if b.requires_grad:
                b._accum(_unbroadcast(g * a.data, b.data.shape))

        out = Tensor._from_op(out_data, (self, other), bw)
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Tensor._lift(other)
        out_data = self.data / other.data

        def bw(a=self, b=other):
            g = out.grad
            if a.requires_grad:
                a._accum(_unbroadcast(g / b.data, a.data.shape))
            if b.requires_grad:
                b._accum(_unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

        out = Tensor._from_op(out_data, (self, other), bw)
        return out

    def __rtruediv__(self, other):
        return Tensor._lift(other) / self

    def __pow__(self, exponent: float):
        if not np.isscalar(exponent):
            raise ArgumentError("pow supports scalar exponents only")
        out_data = self.data**exponent

        def bw(a=self, e=exponent):
            if a.requires_grad:
                a._accum(out.grad * e * a.data ** (e - 1))

        out = Tensor._from_op(out_data, (self,), bw)
        return out

    def __matmul__(self, other):
        other = Tensor._lift(other)
        if self.data.ndim != 2 or other.data.ndim != 2:
            raise ArgumentError("matmul expects 2-D operands")
        if self.data.shape[1] != other.data.shape[0]:
            raise ArgumentError(
                f"matmul shape mismatch: {self.data.shape} @ {other.data.shape}"
            )
        out_data = self.data @ other.data

        def bw(a=self, b=other):
            g = out.grad
            if a.requires_grad:
                a._accum(g @ b.data.T)
            if b.requires_grad:
                b._accum(a.data.T @ g)

        out = Tensor._from_op(out_data, (self, other), bw)
        return out

    # -- shape ops -----------------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)

        def bw(a=self):
            if a.requires_grad:
                a._accum(out.grad.reshape(a.data.shape))

        out = Tensor._from_op(out_data, (self,), bw)
        return out

    def transpose(self, *axes):
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inv = np.argsort(axes)
        out_data = self.data.transpose(axes)

        def bw(a=self, inv=tuple(inv)):
            if a.requires_grad:
                a._accum(out.grad.transpose(inv))

        out = Tensor._from_op(out_data, (self,), bw)
        return out

    @property
    def T(self):
        return self.transpose()

    def __getitem__(self, idx):
        out_data = self.data[idx]

        def bw(a=self, idx=idx):
            if a.requires_grad:
                g = np.zeros_like(a.data)
                g[idx] += out.grad
                a._accum(g)

        out = Tensor._from_op(np.ascontiguousarray(out_data), (self,), bw)
        return out

    # -- reductions ----------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def bw(a=self, axis=axis, keepdims=keepdims):
            if not a.requires_grad:
                return
            g = out.grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            a._accum(np.broadcast_to(g, a.data.shape).copy())

        out = Tensor._from_op(np.asarray(out_data), (self,), bw)
        return out

    def mean(self, axis=None, keepdims: bool = False):
        if axis is None:
            n = self.data.size
        else:
            axes = (axis,) if np.isscalar(axis) else axis
            n = 1
            for ax in axes:
                n *= self.data.shape[ax]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    # -- pointwise nonlinearities ---------------------------------------------

    def exp(self):
        out_data = np.exp(self.data)

        def bw(a=self):
            if a.requires_grad:
                a._accum(out.grad * out.data)

        out = Tensor._from_op(out_data, (self,), bw)
        return out

    def log(self):
        out_data = np.log(self.data)

        def bw(a=self):
            if a.requires_grad:
                a._accum(out.grad / a.data)

        out = Tensor._from_op(out_data, (self,), bw)
        return out

    def tanh(self):
        out_data = np.tanh(self.data)

        def bw(a=self):
            if a.requires_grad:
                a._accum(out.grad * (1.0 - out.data * out.data))

        out = Tensor._from_op(out_data, (self,), bw)
        return out

    def sigmoid(self):
        out_data = sigmoid(self.data)

        def bw(a=self):
            if a.requires_grad:
                a._accum(out.grad * out.data * (1.0 - out.data))

        out = Tensor._from_op(out_data, (self,), bw)
        return out

    def relu(self):
        out_data = np.maximum(self.data, 0.0)

        def bw(a=self):
            if a.requires_grad:
                a._accum(out.grad * (a.data > 0))

        out = Tensor._from_op(out_data, (self,), bw)
        return out

    def sqrt(self):
        return self**0.5

    def softmax(self, axis: int = -1):
        return softmax(self, axis)


# ---------------------------------------------------------------------------
# free functions


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stabilized softmax along `axis`; slices sum to 1."""
    if not -x.ndim <= axis < x.ndim:
        raise ArgumentError(f"softmax axis {axis} invalid for shape {x.shape}")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def bw(a=x, axis=axis):
        if a.requires_grad:
            g = out.grad
            y = out.data
            a._accum(y * (g - (g * y).sum(axis=axis, keepdims=True)))

    out = Tensor._from_op(out_data, (x,), bw)
    return out


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [Tensor._lift(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bw(parts=tuple(tensors), axis=axis, offsets=tuple(offsets)):
        g = out.grad
        for k, p in enumerate(parts):
            if p.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(offsets[k], offsets[k + 1])
                p._accum(g[tuple(sl)])

    out = Tensor._from_op(out_data, tensors, bw)
    return out


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    expanded = []
    for t in tensors:
        t = Tensor._lift(t)
        shape = list(t.shape)
        shape.insert(axis if axis >= 0 else axis + t.ndim + 1, 1)
        expanded.append(t.reshape(*shape))
    return concat(expanded, axis=axis)


def conv2d(x: Tensor, w: Tensor, bias: Tensor | None = None, stride: int = 1, pad: int = 0) -> Tensor:
    """2-D convolution of x (C,H,W) with w (CO,CI,KH,KW), optional bias (CO,)."""
    if x.ndim != 3 or w.ndim != 4:
        raise ArgumentError("conv2d expects x (C,H,W) and w (CO,CI,KH,KW)")
    if x.shape[0] != w.shape[1]:
        raise ArgumentError(f"conv2d channel mismatch: x has {x.shape[0]}, w expects {w.shape[1]}")
    out_data = _kernels.conv2d_forward(x.data, w.data, stride, pad)

    def bw(a=x, b=w, stride=stride, pad=pad):
        g = out.grad
        if a.requires_grad:
            a._accum(_kernels.conv2d_grad_input(g, b.data, a.data.shape, stride, pad))
        if b.requires_grad:
            b._accum(_kernels.conv2d_grad_weight(g, a.data, b.data.shape, stride, pad))

    out = Tensor._from_op(out_data, (x, w), bw)
    if bias is not None:
        out = out + bias.reshape(-1, 1, 1)
    return out


def upsample2x(x: Tensor) -> Tensor:
    """Nearest-neighbour 2x spatial upsampling of (C,H,W)."""
    if x.ndim != 3:
        raise ArgumentError("upsample2x expects (C,H,W)")
    out_data = x.data.repeat(2, axis=1).repeat(2, axis=2)

    def bw(a=x):
        if a.requires_grad:
            c, h, w = a.data.shape
            a._accum(out.grad.reshape(c, h, 2, w, 2).sum(axis=(2, 4)))

    out = Tensor._from_op(out_data, (x,), bw)
    return out


def adaptive_avg_pool2d(x: Tensor, out_hw: tuple[int, int]) -> Tensor:
    """Mean-pool (C,H,W) down to (C,kh,kw) with adaptive block boundaries."""
    if x.ndim != 3:
        raise ArgumentError("adaptive_avg_pool2d expects (C,H,W)")
    c, h, w = x.shape
    kh, kw = out_hw
    if not (1 <= kh <= h and 1 <= kw <= w):
        raise ArgumentError(f"pool target {out_hw} invalid for input {h}x{w}")
    hb = [(math.floor(i * h / kh), math.ceil((i + 1) * h / kh)) for i in range(kh)]
    wb = [(math.floor(j * w / kw), math.ceil((j + 1) * w / kw)) for j in range(kw)]
    out_data = np.empty((c, kh, kw), dtype=x.dtype)
    for i, (h0, h1) in enumerate(hb):
        for j, (w0, w1) in enumerate(wb):
            out_data[:, i, j] = x.data[:, h0:h1, w0:w1].mean(axis=(1, 2))

    def bw(a=x, hb=tuple(hb), wb=tuple(wb)):
        if not a.requires_grad:
            return
        g = np.zeros_like(a.data)
        for i, (h0, h1) in enumerate(hb):
            for j, (w0, w1) in enumerate(wb):
                g[:, h0:h1, w0:w1] += out.grad[:, i : i + 1, j : j + 1] / ((h1 - h0) * (w1 - w0))
        a._accum(g)

    out = Tensor._from_op(out_data, (x,), bw)
    return out


# Bytes of (L_q, L_k) attention weights the forward processes per head group:
# half of a 2 MiB per-core L2, which leaves room for the row max and sum
# vectors and for the Q, K and V blocks the group reads.  Calls whose weights
# all fit stay one batched product: a loop of one head per step costs small
# calls a Python round trip per head.
_ATTN_TILE_BYTES = 1 << 20


def _head_tiles(heads: int, lq: int, lk: int, itemsize: int) -> list[slice]:
    """Groups of heads whose weights fill at most _ATTN_TILE_BYTES, or one head
    per group when a single head's weights exceed it."""
    step = max(1, _ATTN_TILE_BYTES // (lq * lk * itemsize or 1))
    return [slice(h, min(h + step, heads)) for h in range(0, heads, step)]


def scaled_dot_product_attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> tuple[Tensor, np.ndarray]:
    """Multi-head Attention(Q,K,V) = softmax(QK^T/sqrt(d_k)) V as one tape node.

    Q (L_q x D), K (L_k x D) and V (L_k x D_v) are split column-wise into
    `heads` equal blocks, each attended independently (d_k = D / heads).
    Returns (output [L_q x D_v], weights ndarray [heads x L_q x L_k]); the
    output columns are the heads' outputs side by side, and each weight
    row sums to 1.  The weights are the buffer the backward reads, so
    callers must not write to them.  The arithmetic per head is the same as
    separate 2-D products followed by a softmax: the product is scaled, then
    shifted by its row max, exponentiated and divided by its row sum.

    Tile rule: the forward walks the heads in groups of
    max(1, _ATTN_TILE_BYTES // (L_q * L_k * itemsize)) heads, so each
    group's weights stay in L2 through their six passes (product, scale,
    shift, exp, divide, product with V) instead of going through memory
    once per pass: 390 tokens need 1.2 MB per head and run one head per
    group, while 102 tokens (666 KB for 8 heads) and 32 x 390
    cross-attention (799 KB) fit in one group.  The backward runs batched
    over the full weights.  Each head is its own GEMM and its softmax is
    row-wise either way, so the grouping changes no bit of the output, the
    weights or the gradients.
    """
    if q.ndim != 2 or k.ndim != 2 or v.ndim != 2:
        raise ArgumentError("attention expects 2-D Q, K, V")
    if q.shape[1] != k.shape[1]:
        raise ArgumentError(f"Q/K depth mismatch: {q.shape} vs {k.shape}")
    if k.shape[0] != v.shape[0]:
        raise ArgumentError(f"K/V length mismatch: {k.shape} vs {v.shape}")
    if heads < 1 or q.shape[1] % heads or v.shape[1] % heads:
        raise ArgumentError(f"depths {q.shape[1]} and {v.shape[1]} do not split into {heads} heads")
    lq, lk = q.shape[0], k.shape[0]
    dk, dv = q.shape[1] // heads, v.shape[1] // heads
    if dk <= 0:
        raise ArgumentError("d_k must be positive")
    scale = 1.0 / math.sqrt(dk)
    qh = q.data.reshape(lq, heads, dk).transpose(1, 0, 2)  # (H, L_q, d_k) views
    kh = k.data.reshape(lk, heads, dk).transpose(1, 0, 2)
    vh = v.data.reshape(lk, heads, dv).transpose(1, 0, 2)
    weights = np.empty((heads, lq, lk), dtype=np.result_type(q.data, k.data))
    out_data = np.empty((lq, heads * dv), dtype=np.result_type(weights, v.data))
    out_h = out_data.reshape(lq, heads, dv).transpose(1, 0, 2)  # each head's column block
    tiles = _head_tiles(heads, lq, lk, weights.itemsize)
    for t in tiles:
        w = weights[t]
        np.matmul(qh[t], kh[t].transpose(0, 2, 1), out=w)
        w *= scale
        w -= w.max(axis=-1, keepdims=True)
        np.exp(w, out=w)
        w /= w.sum(axis=-1, keepdims=True)
        np.matmul(w, vh[t], out=out_h[t])

    def bw(a=q, b=k, c=v):
        g = out.grad.reshape(lq, heads, dv).transpose(1, 0, 2)
        if c.requires_grad:
            c._accum(np.matmul(weights.transpose(0, 2, 1), g).transpose(1, 0, 2).reshape(lk, heads * dv))
        if not (a.requires_grad or b.requires_grad):
            return
        gs = np.matmul(g, vh.transpose(0, 2, 1))  # d loss / d weights
        gs -= (gs * weights).sum(axis=-1, keepdims=True)
        gs *= weights
        gs *= scale  # now d loss / d (Q K^T)
        if a.requires_grad:
            a._accum(np.matmul(gs, kh).transpose(1, 0, 2).reshape(lq, heads * dk))
        if b.requires_grad:
            b._accum(np.matmul(qh.transpose(0, 2, 1), gs).transpose(2, 0, 1).reshape(lk, heads * dk))

    out = Tensor._from_op(out_data, (q, k, v), bw)
    return out, weights


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor, eps: float = 1e-6) -> float:
    """Max relative error between analytic and central-difference gradients.

    Error per coordinate is |analytic - fd| / max(1, |analytic|).  The
    function f must map a Tensor to a finite scalar Tensor.
    """
    if x.data.dtype != np.float64:
        raise ArgumentError("grad_check requires float64 input")
    probe = Tensor(x.data.copy(), requires_grad=True)
    y = f(probe)
    if y.size != 1:
        raise ArgumentError("grad_check target must return a scalar")
    if not np.isfinite(y.data).all():
        raise NumericError("non-finite function value in grad_check")
    y.backward()
    analytic = probe.grad.copy() if probe.grad is not None else np.zeros_like(probe.data)

    work = x.data.copy()
    flat = work.reshape(-1)
    fd = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = float(f(Tensor(work)).data)
        flat[i] = orig - eps
        fm = float(f(Tensor(work)).data)
        flat[i] = orig
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise NumericError("non-finite evaluation at finite-difference probe")
        fd[i] = (fp - fm) / (2.0 * eps)
    fd = fd.reshape(analytic.shape)
    err = np.abs(analytic - fd) / np.maximum(1.0, np.abs(analytic))
    return float(err.max()) if err.size else 0.0
