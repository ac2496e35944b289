"""Dense tensors with reverse-mode differentiation on a dynamic tape.

Every array in the pipeline lives in a ``Tensor``: float64 by default so
finite-difference checks are decisive, float32 available for speed.  The
tape is a per-result closure graph.  ``backward()`` frees it as the sweep
walks it: once a node's backward has run, the node drops its closure, its
parents and its gradient, so what the closure saved is freed before the
sweep reaches the nodes below it, as PyTorch's autograd frees its saved
buffers.

Each layer kind of the model is one tape node with an analytic backward:

- `linear`: x @ W + b
- `conv2d`: convolution plus bias, one matrix product per pass in
  ``_kernels``; a recorded node keeps its input, not the forward's im2col
  columns, and the grad-weight pass rebuilds them
- `normalize`: layer norm and group norm, with the closed-form backward
- `lstm`: one LSTM direction over a whole sequence, backward through time
- `scaled_dot_product_attention`: every head at once; the forward walks
  the heads in groups whose scores fit in L2 (see `_ATTN_TILE_BYTES`)
  through one scratch tile, and the backward rebuilds the weights from Q
  and K (`attention_weights`) instead of keeping them
- `cross_entropy` and `dice_loss`: the two terms of the set loss

Their forwards run the same floating-point operations, in the same order,
as the compositions of elementary ops they replace, except attention's,
which scales Q rather than the scores, shifts the scores by their row max
only when a bound on |Q·K| says exp could overflow (see `_exp_scores`),
takes each row's softmax sum as a product with a ones vector, and divides
each output row by that sum rather than the weights.

`linear`, `conv2d` and `normalize` take ``relu=True`` to apply a ReLU to
their own new output in place, and their backward masks the incoming
gradient to where that output is positive.  max(x, 0) > 0 exactly where
x > 0, and none of the three backwards reads the values the ReLU
overwrites, so the fused node gives the bits of the op followed by a
separate ReLU node, with one array and one node fewer.

No op checks its output for finiteness: `train_loop` checks the loss and
the gradients before each optimizer step.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from . import _kernels
from .errors import ArgumentError, NumericError

_GRAD_ENABLED = True


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


def _records(parents: Sequence["Tensor"]) -> bool:
    """Whether an op on `parents` goes on the tape."""
    return _GRAD_ENABLED and any(p.requires_grad for p in parents)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum gradient g down to `shape` (inverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    axes = tuple(i for i, (gs, s) in enumerate(zip(g.shape, shape)) if s == 1 and gs > 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _relu_grad(out: Tensor, relu: bool) -> np.ndarray:
    """out.grad, masked to where out is positive when out's op applied a ReLU
    to it: max(x, 0) > 0 exactly where x > 0."""
    return out.grad * (out.data > 0) if relu else out.grad


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function in a form whose exp never overflows.

    With e = exp(-|x|): 1 / (1 + e) where x >= 0, else e / (1 + e); one exp
    for both branches.  Since 0 <= e <= 1, max(e, x >= 0) is exactly that
    numerator, and one unmasked divide replaces a divide masked to x >= 0.
    """
    e = np.exp(-np.abs(x))
    return np.maximum(e, x >= 0) / (1.0 + e)


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
        if _records(parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    # -- basic protocol ------------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def _accum(self, g: np.ndarray):
        if self.grad is None:
            # a copy: callers may pass a view of another node's gradient, or
            # the same array to two parents
            self.grad = np.array(g, dtype=self.data.dtype)
        else:
            self.grad += g

    # -- autodiff ------------------------------------------------------------

    def backward(self, seed: np.ndarray | None = None):
        """Reverse sweep from this tensor, freeing the tape as it goes.

        Each node leaves the sweep with no closure and no parents, so an
        array its closure saved is freed as soon as its backward has run.
        Leaves (parameters, probes) and this tensor keep their `grad`; every
        other op result ends with `grad` None, as a non-leaf tensor of
        PyTorch does.
        """
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
        while topo:  # popped, so that the list holds no node the sweep is done with
            node = topo.pop()
            if node._backward is None:
                continue  # a leaf
            if node.grad is not None:
                node._backward()
                if node is not self:
                    node.grad = None
            # every consumer of this node ran before it: nothing reads its tape again
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

    def __matmul__(self, other):
        return linear(self, Tensor._lift(other))

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

    def __getitem__(self, idx):
        out_data = self.data[idx]

        def bw(a=self, idx=idx):
            if a.requires_grad:
                g = np.zeros_like(a.data)
                np.add.at(g, idx, out.grad)  # once per occurrence of a repeated index
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

    def sigmoid(self):
        out_data = sigmoid(self.data)

        def bw(a=self):
            if a.requires_grad:
                a._accum(out.grad * out.data * (1.0 - out.data))

        out = Tensor._from_op(out_data, (self,), bw)
        return out


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


def linear(x: Tensor, w: Tensor, b: Tensor | None = None, relu: bool = False) -> Tensor:
    """x (L, d_in) @ w (d_in, d_out) + b (d_out,) as one tape node; with
    `relu`, max(that, 0)."""
    if x.ndim != 2 or w.ndim != 2:
        raise ArgumentError("matmul expects 2-D operands")
    if x.shape[1] != w.shape[0]:
        raise ArgumentError(f"matmul shape mismatch: {x.shape} @ {w.shape}")
    out_data = x.data @ w.data
    if b is not None:
        out_data += b.data
    if relu:
        np.maximum(out_data, 0.0, out=out_data)

    def bw(a=x, w=w, b=b):
        g = _relu_grad(out, relu)
        if a.requires_grad:
            a._accum(g @ w.data.T)
        if w.requires_grad:
            w._accum(a.data.T @ g)
        if b is not None and b.requires_grad:
            b._accum(_unbroadcast(g, b.data.shape))

    out = Tensor._from_op(out_data, (x, w) if b is None else (x, w, b), bw)
    return out


def normalize(x: Tensor, gain: Tensor, bias: Tensor, stat_shape: tuple[int, int], eps: float, relu: bool = False) -> Tensor:
    """(x - mean) / sqrt(var + eps) * gain + bias as one tape node; with
    `relu`, max(that, 0).

    Mean and (biased) variance are taken over the last axis of x viewed as
    `stat_shape`: (-1, D) normalizes each row of D features (layer norm),
    (groups, -1) each group of channels (group norm).  The result has x's
    shape; gain and bias broadcast against it.  The backward is the closed
    form dx = (dn - mean(dn) - n * mean(dn * n)) / std per row, where n is
    the normalized input and dn = dout * gain (Ba et al., 2016).
    """
    xs = x.data.reshape(stat_shape)
    inv_n = 1.0 / xs.shape[-1]
    norm = xs - xs.sum(axis=-1, keepdims=True) * inv_n  # centred here, normalized below
    out_data = np.empty(x.shape, dtype=np.result_type(xs, gain.data, bias.data))
    # the output buffer holds the squares first, when they share its dtype
    squares = np.multiply(norm, norm, out=out_data.reshape(norm.shape) if out_data.dtype == norm.dtype else None)
    var = squares.sum(axis=-1, keepdims=True) * inv_n
    std = (var + eps) ** 0.5
    norm /= std
    np.multiply(norm.reshape(x.shape), gain.data, out=out_data)
    out_data += bias.data
    if relu:
        np.maximum(out_data, 0.0, out=out_data)

    def bw(a=x, gain=gain, bias=bias):
        g = _relu_grad(out, relu)
        if a.requires_grad:
            dn = (g * gain.data).reshape(norm.shape)
            dn -= dn.sum(axis=-1, keepdims=True) * inv_n
            dn -= norm * ((dn * norm).sum(axis=-1, keepdims=True) * inv_n)
            a._accum((dn / std).reshape(a.data.shape))
        if gain.requires_grad:
            gain._accum(_unbroadcast(g * norm.reshape(g.shape), gain.data.shape))
        if bias.requires_grad:
            bias._accum(_unbroadcast(g, bias.data.shape))

    out = Tensor._from_op(out_data, (x, gain, bias), bw)
    return out


def lstm(xs: Tensor, wx: Tensor, wh: Tensor, b: Tensor, reverse: bool = False) -> Tensor:
    """One LSTM direction over a (steps, d_in) sequence as one tape node.

    Per step z = x_t @ wx + h @ wh + b splits into gates [i, f, g, o];
    c = f * c + i * g and h = o * tanh(c), from zero states.  `reverse` runs
    the steps last to first; row t of the (steps, hidden) output is always
    the state after step t.  Every step's input projection is lifted out of
    the recurrence into one stacked product (Appleyard et al., 2016).  It is
    a batch of (1, d_in) rows rather than one (steps, d_in) GEMM, because the
    GEMM kernel rounds differently from the row product it replaces.  The
    backward runs through time in one closure and takes the weight and input
    gradients as whole-sequence products.
    """
    steps, hd = xs.shape[0], wh.shape[0]
    if xs.ndim != 2 or wx.shape != (xs.shape[1], 4 * hd) or wh.shape != (hd, 4 * hd) or b.shape != (4 * hd,):
        raise ArgumentError(f"lstm shapes disagree: x {xs.shape}, wx {wx.shape}, wh {wh.shape}, b {b.shape}")
    xw = np.matmul(xs.data[:, None, :], wx.data)  # (steps, 1, 4*hidden)
    order = range(steps - 1, -1, -1) if reverse else range(steps)
    gates = np.empty((steps, 4 * hd))  # sigmoid(i), sigmoid(f), tanh(g), sigmoid(o)
    h_in = np.zeros((steps, hd))  # hidden state entering each step
    c_in = np.zeros((steps, hd))
    tanh_c = np.empty((steps, hd))
    out_data = np.empty((steps, hd))
    h = np.zeros((1, hd))
    c = np.zeros((1, hd))
    for t in order:
        h_in[t], c_in[t] = h[0], c[0]
        z = xw[t] + h @ wh.data
        z += b.data
        act = sigmoid(z)
        act[:, 2 * hd : 3 * hd] = np.tanh(z[:, 2 * hd : 3 * hd])
        i, f, g, o = act[:, :hd], act[:, hd : 2 * hd], act[:, 2 * hd : 3 * hd], act[:, 3 * hd :]
        c = f * c + i * g
        tanh_c[t] = np.tanh(c)
        h = o * tanh_c[t]
        gates[t], out_data[t] = act[0], h[0]

    def bw(a=xs, wx=wx, wh=wh, b=b):
        gz = np.empty((steps, 4 * hd))  # d loss / d z per step
        dh = np.zeros(hd)
        dc = np.zeros(hd)
        for t in reversed(order):
            i, f, g, o = gates[t, :hd], gates[t, hd : 2 * hd], gates[t, 2 * hd : 3 * hd], gates[t, 3 * hd :]
            dh = dh + out.grad[t]
            dc = dc + dh * o * (1.0 - tanh_c[t] * tanh_c[t])
            gz[t, :hd] = dc * g * i * (1.0 - i)
            gz[t, hd : 2 * hd] = dc * c_in[t] * f * (1.0 - f)
            gz[t, 2 * hd : 3 * hd] = dc * i * (1.0 - g * g)
            gz[t, 3 * hd :] = dh * tanh_c[t] * o * (1.0 - o)
            dh = wh.data @ gz[t]
            dc = dc * f
        if a.requires_grad:
            a._accum(gz @ wx.data.T)
        if wx.requires_grad:
            wx._accum(a.data.T @ gz)
        if wh.requires_grad:
            wh._accum(h_in.T @ gz)
        if b.requires_grad:
            b._accum(gz.sum(axis=0))

    out = Tensor._from_op(out_data, (xs, wx, wh, b), bw)
    return out


def cross_entropy(probs: Tensor, targets: np.ndarray) -> Tensor:
    """-sum_r log(probs[r, targets[r]]) over the rows of (N, C) probabilities,
    as one tape node."""
    onehot = np.zeros(probs.shape)
    onehot[np.arange(probs.shape[0]), targets] = 1.0
    # a probability that underflowed to 0 gives a non-finite loss, which
    # train_loop reports as a NumericError, not as a numpy warning
    with np.errstate(divide="ignore", invalid="ignore"):
        out_data = -(np.log(probs.data) * onehot).sum()

    def bw(a=probs):
        if a.requires_grad:
            a._accum((-out.grad * onehot) / a.data)

    out = Tensor._from_op(np.asarray(out_data), (probs,), bw)
    return out


def dice_loss(logits: Tensor, rows: Sequence[int], targets: np.ndarray, smooth: float) -> Tensor:
    """Sum over k of 1 - Dice(sigmoid(logits[rows[k]]), targets[k]), one tape node.

    Dice(m, t) = (2 sum(m t) + smooth) / (sum(m) + sum(t) + smooth).  The
    terms are computed from one stacked (K, ...) array and added in order of
    k; K = 0 gives 0.
    """
    rows = list(rows)
    k, size = len(rows), math.prod(logits.shape[1:])
    t = np.asarray(targets, dtype=np.float64).reshape(k, size)
    m = sigmoid(logits.data[rows]).reshape(k, size)
    num = (m * t).sum(axis=-1) * 2.0 + smooth
    den = m.sum(axis=-1) + t.sum(axis=-1) + smooth
    terms = 1.0 - num / den
    out_data = np.cumsum(terms)[-1] if k else np.zeros(())

    def bw(a=logits):
        if not a.requires_grad:
            return
        dm = (num / (den * den))[:, None] - 2.0 * t / den[:, None]  # d(sum of terms) / dm
        grad = np.zeros_like(a.data)
        np.add.at(grad, rows, (out.grad * dm * m * (1.0 - m)).reshape(k, *a.data.shape[1:]))
        a._accum(grad)

    out = Tensor._from_op(np.asarray(out_data), (logits,), bw)
    return out


def conv2d(x: Tensor, w: Tensor, b: Tensor, stride: int, pad: int, relu: bool = False) -> Tensor:
    """2-D convolution of x (C,H,W) with w (CO,CI,KH,KW) plus bias b (CO,),
    as one tape node; with `relu`, max(that, 0)."""
    if x.ndim != 3 or w.ndim != 4:
        raise ArgumentError("conv2d expects x (C,H,W) and w (CO,CI,KH,KW)")
    if x.shape[0] != w.shape[1]:
        raise ArgumentError(f"conv2d channel mismatch: x has {x.shape[0]}, w expects {w.shape[1]}")
    if b.shape != (w.shape[0],):
        raise ArgumentError(f"conv2d bias {b.shape} does not match {w.shape[0]} output channels")
    out_data = _kernels.conv2d_forward(x.data, w.data, stride, pad)
    out_data += b.data[:, None, None]
    if relu:
        np.maximum(out_data, 0.0, out=out_data)

    def bw(a=x, w=w, b=b):
        g = _relu_grad(out, relu)
        if a.requires_grad:
            a._accum(_kernels.conv2d_grad_input(g, w.data, a.data.shape, stride, pad))
        if w.requires_grad:
            w._accum(_kernels.conv2d_grad_weight(g, a.data, w.data.shape, stride, pad))
        if b.requires_grad:
            b._accum(g.sum(axis=(1, 2)))

    out = Tensor._from_op(out_data, (x, w, b), bw)
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


def avg_pool2d(x: Tensor, out_hw: tuple[int, int]) -> Tensor:
    """Mean-pool (C,H,W) down to (C,kh,kw) over equal blocks; kh must divide H
    and kw must divide W."""
    if x.ndim != 3:
        raise ArgumentError("avg_pool2d expects (C,H,W)")
    c, h, w = x.shape
    kh, kw = out_hw
    if kh < 1 or kw < 1 or h % kh or w % kw:
        raise ArgumentError(f"pool target {out_hw} does not divide input {h}x{w}")
    rows, cols = h // kh, w // kw
    # each block's values back to back on the last axis, in the order in which
    # the mean of the block's (C, rows, cols) slice sums them
    blocks = np.ascontiguousarray(x.data.reshape(c, kh, rows, kw, cols).transpose(0, 1, 3, 2, 4))
    out_data = blocks.reshape(c, kh, kw, rows * cols).mean(axis=-1)

    def bw(a=x):
        if a.requires_grad:
            g = out.grad[:, :, None, :, None] / (rows * cols)
            a._accum(np.broadcast_to(g, (c, kh, rows, kw, cols)).reshape(c, h, w))

    out = Tensor._from_op(out_data, (x,), bw)
    return out


# Bytes of (L_q, L_k) attention scores one head tile holds: half of a 2 MiB
# per-core L2, which leaves room for the row max and sum vectors and for the
# Q, K and V blocks the tile reads.  Calls whose scores all fit stay one
# batched product: a loop of one head per step costs small calls a Python
# round trip per head.
_ATTN_TILE_BYTES = 1 << 20


def _head_tiles(heads: int, lq: int, lk: int, itemsize: int) -> list[slice]:
    """Groups of heads whose scores fill at most _ATTN_TILE_BYTES, or one head
    per group when a single head's scores exceed it."""
    step = max(1, _ATTN_TILE_BYTES // (lq * lk * itemsize or 1))
    return [slice(h, min(h + step, heads)) for h in range(0, heads, step)]


def _split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    """(L, heads * d) -> (heads, L, d) view: each head's column block."""
    return x.reshape(x.shape[0], heads, -1).transpose(1, 0, 2)


# Largest bound on |Q·K| under which float64 scores skip the row-max shift;
# `_exp_scores` says why 600.
_SAFE_LOGIT = 600.0


def _needs_shift(qs: np.ndarray, kh: np.ndarray, dtype: np.dtype) -> bool:
    """Whether a call shifts its scores: unless it is float64 and
    d_k * max|Qs| * max|K| <= _SAFE_LOGIT.  A NaN or inf fails the test
    (Python floats overflow to inf without a warning)."""
    bound = qs.shape[-1] * float(np.abs(qs).max(initial=0.0)) * float(np.abs(kh).max(initial=0.0))
    return not (dtype == np.float64 and bound <= _SAFE_LOGIT)


def _exp_scores(qs: np.ndarray, kh: np.ndarray, e: np.ndarray, shift: bool) -> np.ndarray:
    """Softmax numerators of one head tile, written into `e`: exp(Qs K^T)
    for the pre-scaled Qs, less each row's max first when `shift`.  Returns
    the row sums, (tile heads, L_q, 1), as one product with a ones vector.

    The shift is a softmax identity that costs two passes over the scores,
    so `_needs_shift` drops it once per call when every score is bounded:
    |Qs·K| <= d_k * max|Qs| * max|K| <= _SAFE_LOGIT = 600.  Each exp is
    then a normal float64 in [e^-600, e^600], and each row sum is at most
    L_k * e^600: exp overflows past 709.78, so the limit leaves a factor
    e^109 of headroom for the sums.  float32 calls always shift (their exp
    overflows past 88.7).
    """
    np.matmul(qs, kh.transpose(0, 2, 1), out=e)
    if shift:
        e -= e.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    return e @ np.ones((e.shape[-1], 1), dtype=e.dtype)


def attention_weights(q: np.ndarray, k: np.ndarray, heads: int) -> np.ndarray:
    """Per-head softmax(QK^T/sqrt(d_k)), (heads, L_q, L_k), each row summing
    to 1: bit for bit the weights a recording `scaled_dot_product_attention`
    with these Q and K rebuilds in its backward."""
    scale = 1.0 / math.sqrt(q.shape[1] // heads)
    qs, kh = _split_heads(q * scale, heads), _split_heads(k, heads)
    w = np.empty((heads, q.shape[0], k.shape[0]), dtype=np.result_type(q, k))
    shift = _needs_shift(qs, kh, w.dtype)
    for t in _head_tiles(heads, q.shape[0], k.shape[0], w.itemsize):
        w[t] /= _exp_scores(qs[t], kh[t], w[t], shift)
    return w


def scaled_dot_product_attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """Multi-head Attention(Q,K,V) = softmax(QK^T/sqrt(d_k)) V as one tape node.

    Q (L_q x D), K (L_k x D) and V (L_k x D_v) are split column-wise into
    `heads` equal blocks, each attended independently (d_k = D / heads).
    Returns the output [L_q x D_v], the heads' outputs side by side.  Per
    head the scale multiplies Q, the product with K^T is exponentiated
    (after a shift by its row max only when a bound on |Q·K| needs one, see
    `_exp_scores`), and each row of that times V is divided by the row's
    sum: the (L_q, L_k) weights are never divided on the way to the output.
    `attention_weights` gives them for diagnostics.

    Tile rule: the forward walks the heads in groups of
    max(1, _ATTN_TILE_BYTES // (L_q * L_k * itemsize)) heads, so each
    group's scores stay in L2 through their passes (product, exp, sum as a
    matrix-vector product, product with V; plus row max and subtraction
    when shifted) instead of going through memory once per pass:
    390 tokens need 1.2 MB per head and run one head per group, while
    102 tokens (666 KB for 8 heads) and 32 x 390 cross-attention (799 KB)
    fit in one group.  Every group reuses one scratch buffer of a group's
    size, whether or not the node records.  A recording node keeps no
    weights: its backward rebuilds all of them, (heads, L_q, L_k), with
    `attention_weights` from the Q and K it keeps anyway (as FlashAttention
    recomputes them, Dao et al., 2022), and runs batched over them.  Those
    are the forward's operations on the same values, so the rebuilt weights
    are the forward's bit for bit.  Each head is its own GEMM and its
    softmax is row-wise, so the grouping changes no bit of the output or
    the gradients either.
    """
    if q.ndim != 2 or k.ndim != 2 or v.ndim != 2:
        raise ArgumentError("attention expects 2-D Q, K, V")
    if q.shape[1] != k.shape[1]:
        raise ArgumentError(f"Q/K depth mismatch: {q.shape} vs {k.shape}")
    if k.shape[0] != v.shape[0]:
        raise ArgumentError(f"K/V length mismatch: {k.shape} vs {v.shape}")
    if k.shape[0] == 0:
        raise ArgumentError("attention needs at least one key")
    if heads < 1 or q.shape[1] % heads or v.shape[1] % heads:
        raise ArgumentError(f"depths {q.shape[1]} and {v.shape[1]} do not split into {heads} heads")
    lq, lk = q.shape[0], k.shape[0]
    dk, dv = q.shape[1] // heads, v.shape[1] // heads
    if dk <= 0:
        raise ArgumentError("d_k must be positive")
    scale = 1.0 / math.sqrt(dk)
    qs = _split_heads(q.data * scale, heads)
    kh, vh = _split_heads(k.data, heads), _split_heads(v.data, heads)
    dtype = np.result_type(q.data, k.data)
    tiles = _head_tiles(heads, lq, lk, dtype.itemsize)
    shift = _needs_shift(qs, kh, dtype)
    scratch = np.empty((tiles[0].stop, lq, lk), dtype=dtype)
    out_data = np.empty((lq, heads * dv), dtype=np.result_type(dtype, v.data))
    out_h = _split_heads(out_data, heads)
    for t in tiles:
        e = scratch[: t.stop - t.start]
        sums = _exp_scores(qs[t], kh[t], e, shift)
        np.matmul(e, vh[t], out=out_h[t])
        out_h[t] /= sums

    def bw(a=q, b=k, c=v):
        g = _split_heads(out.grad, heads)
        weights = attention_weights(a.data, b.data, heads)
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
            qh = _split_heads(a.data, heads)
            b._accum(np.matmul(qh.transpose(0, 2, 1), gs).transpose(2, 0, 1).reshape(lk, heads * dk))

    out = Tensor._from_op(out_data, (q, k, v), bw)
    return out


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor, eps: float = 1e-6) -> float:
    """Max relative error between analytic and central-difference gradients.

    Error per coordinate is |analytic - fd| / max(1, |analytic|).  The
    function f must map a Tensor to a finite scalar Tensor.
    """
    if x.data.dtype != np.float64:
        raise ArgumentError("grad_check requires float64 input")
    probe = Tensor(x.data.copy(), requires_grad=True)
    y = f(probe)
    if y.data.size != 1:
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
