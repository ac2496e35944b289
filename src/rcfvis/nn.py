"""Parameterized layers on top of the tape: linear, conv, norms, attention, LSTM.

Weights start from N(0, 0.02), biases at zero, normalization gains at one.
Every module owns an rng so parameter values depend only on (seed, module
name), not on what else the model instantiates.

Each layer calls one fused op of `tensor`, one tape node per call: `Linear`
calls `linear`, `Conv2dLayer` calls `conv2d`, `LayerNorm` and `GroupNormReLU`
call `normalize`, `LSTMLayer` calls `lstm` and `MultiheadAttention` calls
`scaled_dot_product_attention` (after its four `Linear` projections).
`Linear` and `Conv2dLayer` take ``relu=True`` to fold a ReLU into that node
(`FeedForward`'s hidden layer is one), and `GroupNormReLU` always folds
one, rather than add a node and an array for it.
"""

from __future__ import annotations

import zlib

import numpy as np

from .errors import ArgumentError
from .tensor import Tensor, attention_weights, concat, conv2d, linear, lstm, normalize, scaled_dot_product_attention

INIT_STD = 0.02
NORM_EPS = 1e-5


def module_rng(seed: int, name: str) -> np.random.Generator:
    """Independent parameter stream per module name."""
    return np.random.default_rng([seed & 0xFFFFFFFF, zlib.crc32(name.encode())])


class Module:
    """Minimal parameter container with hierarchical registration."""

    def __init__(self, name: str):
        self.name = name
        self._params: dict[str, Tensor] = {}
        self._children: list[Module] = []

    def param(self, key: str, array: np.ndarray) -> Tensor:
        t = Tensor(np.asarray(array, dtype=np.float64), requires_grad=True)
        self._params[key] = t
        return t

    def child(self, module: "Module") -> "Module":
        self._children.append(module)
        return module

    def params(self) -> dict[str, Tensor]:
        out = {f"{self.name}.{k}": v for k, v in self._params.items()}
        for c in self._children:
            for k, v in c.params().items():
                out[f"{self.name}.{k}"] = v
        return out


class Linear(Module):
    def __init__(self, name: str, d_in: int, d_out: int, rng: np.random.Generator, bias: bool = True):
        super().__init__(name)
        self.w = self.param("w", rng.normal(0.0, INIT_STD, size=(d_in, d_out)))
        self.b = self.param("b", np.zeros(d_out)) if bias else None

    def __call__(self, x: Tensor, relu: bool = False) -> Tensor:
        return linear(x, self.w, self.b, relu)


class Conv2dLayer(Module):
    def __init__(self, name, c_in, c_out, k, rng, stride=1, pad=0):
        super().__init__(name)
        self.stride, self.pad = stride, pad
        self.w = self.param("w", rng.normal(0.0, INIT_STD, size=(c_out, c_in, k, k)))
        self.b = self.param("b", np.zeros(c_out))

    def __call__(self, x: Tensor, relu: bool = False) -> Tensor:
        return conv2d(x, self.w, self.b, self.stride, self.pad, relu)


class GroupNormReLU(Module):
    """Group norm followed by a ReLU, as one `normalize` node: the backbone's
    norm-activation pair."""

    def __init__(self, name: str, groups: int, channels: int):
        super().__init__(name)
        if channels % groups:
            raise ArgumentError(f"{channels} channels do not divide into {groups} groups")
        self.groups = groups
        self.gain = self.param("gain", np.ones((channels, 1, 1)))
        self.bias = self.param("bias", np.zeros((channels, 1, 1)))

    def __call__(self, x: Tensor) -> Tensor:
        return normalize(x, self.gain, self.bias, (self.groups, -1), NORM_EPS, relu=True)


class LayerNorm(Module):
    def __init__(self, name: str, dim: int):
        super().__init__(name)
        self.gain = self.param("gain", np.ones(dim))
        self.bias = self.param("bias", np.zeros(dim))

    def __call__(self, x: Tensor) -> Tensor:
        return normalize(x, self.gain, self.bias, (-1, x.shape[-1]), NORM_EPS)


class MultiheadAttention(Module):
    """Multi-head scaled dot-product attention over row-token matrices.

    The Q/K/V projections run as single (L x dim) products; every head is
    attended in one `scaled_dot_product_attention` node.  K has no bias: a
    key bias b adds q.b to every logit of query q, a per-query constant that
    the softmax over keys cancels, so it could never change an output.
    """

    def __init__(self, name: str, dim: int, heads: int, rng: np.random.Generator):
        super().__init__(name)
        if dim % heads:
            raise ArgumentError(f"dim {dim} does not divide into {heads} heads")
        self.heads = heads
        self.wq = self.child(Linear("wq", dim, dim, rng))
        self.wk = self.child(Linear("wk", dim, dim, rng, bias=False))
        self.wv = self.child(Linear("wv", dim, dim, rng))
        self.wo = self.child(Linear("wo", dim, dim, rng))

    def __call__(self, q_in: Tensor, kv_in: Tensor) -> Tensor:
        """Returns the output [L_q x dim]."""
        return self.wo(scaled_dot_product_attention(self.wq(q_in), self.wk(kv_in), self.wv(kv_in), self.heads))

    def weights(self, q_in: Tensor, kv_in: Tensor) -> np.ndarray:
        """Per-head attention weights [heads, L_q, L_k] of a call on the same inputs."""
        return attention_weights(self.wq(q_in).data, self.wk(kv_in).data, self.heads)


class FeedForward(Module):
    def __init__(self, name: str, dim: int, hidden: int, rng: np.random.Generator):
        super().__init__(name)
        self.fc1 = self.child(Linear("fc1", dim, hidden, rng))
        self.fc2 = self.child(Linear("fc2", hidden, dim, rng))

    def __call__(self, x: Tensor) -> Tensor:
        return self.fc2(self.fc1(x, relu=True))


class EncoderLayer(Module):
    """Pre-layer-norm transformer encoder block."""

    def __init__(self, name: str, dim: int, heads: int, ffn: int, rng: np.random.Generator):
        super().__init__(name)
        self.ln1 = self.child(LayerNorm("ln1", dim))
        self.attn = self.child(MultiheadAttention("attn", dim, heads, rng))
        self.ln2 = self.child(LayerNorm("ln2", dim))
        self.ffn = self.child(FeedForward("ffn", dim, ffn, rng))

    def __call__(self, x: Tensor) -> Tensor:
        normed = self.ln1(x)
        x = x + self.attn(normed, normed)
        return x + self.ffn(self.ln2(x))


class DecoderLayer(Module):
    """Pre-layer-norm decoder block: query self-attention then cross-attention."""

    def __init__(self, name: str, dim: int, heads: int, ffn: int, rng: np.random.Generator):
        super().__init__(name)
        self.ln1 = self.child(LayerNorm("ln1", dim))
        self.self_attn = self.child(MultiheadAttention("self_attn", dim, heads, rng))
        self.ln2 = self.child(LayerNorm("ln2", dim))
        self.cross_attn = self.child(MultiheadAttention("cross_attn", dim, heads, rng))
        self.ln3 = self.child(LayerNorm("ln3", dim))
        self.ffn = self.child(FeedForward("ffn", dim, ffn, rng))

    def __call__(self, q: Tensor, memory: Tensor) -> Tensor:
        normed = self.ln1(q)
        q = q + self.self_attn(normed, normed)
        q = q + self.cross_attn(self.ln2(q), memory)
        return q + self.ffn(self.ln3(q))


class LSTMLayer(Module):
    """Single-direction LSTM over a (steps, d_in) sequence."""

    def __init__(self, name: str, d_in: int, hidden: int, rng: np.random.Generator):
        super().__init__(name)
        self.wx = self.param("wx", rng.normal(0.0, INIT_STD, size=(d_in, 4 * hidden)))
        self.wh = self.param("wh", rng.normal(0.0, INIT_STD, size=(hidden, 4 * hidden)))
        self.b = self.param("b", np.zeros(4 * hidden))

    def __call__(self, xs: Tensor, reverse: bool = False) -> Tensor:
        return lstm(xs, self.wx, self.wh, self.b, reverse)


class BiLSTM(Module):
    """Stack of bidirectional LSTM layers; output is (steps, 2*hidden)."""

    def __init__(self, name: str, d_in: int, hidden: int, layers: int, rng: np.random.Generator):
        super().__init__(name)
        self.layers = []
        for n in range(layers):
            fwd = self.child(LSTMLayer(f"l{n}_fwd", d_in if n == 0 else 2 * hidden, hidden, rng))
            bwd = self.child(LSTMLayer(f"l{n}_bwd", d_in if n == 0 else 2 * hidden, hidden, rng))
            self.layers.append((fwd, bwd))

    def __call__(self, xs: Tensor) -> Tensor:
        for fwd, bwd in self.layers:
            xs = concat([fwd(xs), bwd(xs, reverse=True)], axis=1)
        return xs
