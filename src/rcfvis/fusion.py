"""Context fusion: importance-weighted token compression plus a transformer
encoder over target, reference and (optional) audio tokens.

Target frames keep their full spatial grid (H*W tokens); the stacked
reference features are reweighted by a learned pixel map, compressed to a
K x K grid, and projected to the shared token width; audio features pass
through a bi-LSTM before projection.  All tokens attend to all tokens in
the encoder.  Tokens travel as one plain (L, C') tensor, target rows first;
`TokenLayout` says which rows belong to which segment, and `split_fused`
and `attention_maps` take it from `RCFModel.token_layout`.  The forward
keeps no attention weights; `attention_maps` recomputes every head's for
diagnostics.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ArgumentError
from .nn import INIT_STD, BiLSTM, EncoderLayer, Linear, Module
from .tensor import Tensor, avg_pool2d, concat, stack

SEGMENT_NAMES = ("target", "reference", "audio")


@dataclass
class TokenLayout:
    h: int
    w: int
    k: int  # reference grid side, 0 without reference frames
    audio_len: int  # (1 + delta) when audio is enabled, else 0

    @property
    def n_target(self) -> int:
        return self.h * self.w

    @property
    def n_reference(self) -> int:
        return self.k * self.k

    def segment_slices(self) -> dict[str, slice]:
        a = self.n_target
        b = a + self.n_reference
        return {"target": slice(0, a), "reference": slice(a, b), "audio": slice(b, b + self.audio_len)}


@dataclass
class FusionDiagnostics:
    """Per-layer, per-head attention plus segment-to-segment mass fractions."""

    attention: list[np.ndarray]  # each (heads, L, L)
    layout: TokenLayout

    def segment_mass(self) -> np.ndarray:
        """(3,3) matrix: mean attention mass flowing src-segment -> dst-segment."""
        slices = self.layout.segment_slices()
        mass = np.zeros((3, 3))
        counts = np.zeros(3)
        for layer in self.attention:
            for si, sname in enumerate(SEGMENT_NAMES):
                rows = layer[:, slices[sname], :]
                if rows.shape[1] == 0:
                    continue
                for di, dname in enumerate(SEGMENT_NAMES):
                    cols = rows[:, :, slices[dname]]
                    if cols.shape[2] == 0:
                        continue
                    mass[si, di] += cols.sum(axis=2).mean()
                counts[si] += 1
        for si in range(3):
            if counts[si]:
                mass[si] /= counts[si]
        return mass


def sincos_position_encoding_2d(h: int, w: int, dim: int) -> np.ndarray:
    """Fixed 2-D sinusoidal encoding, (h*w, dim); half the width per axis."""
    if dim % 4:
        raise ArgumentError("2-D sinusoidal encoding needs dim divisible by 4")
    half = dim // 2

    def axis_encoding(n, d):
        pos = np.arange(n, dtype=np.float64)[:, None]
        i = np.arange(d // 2, dtype=np.float64)[None, :]
        angles = pos / (10000.0 ** (2.0 * i / d))
        enc = np.zeros((n, d))
        enc[:, 0::2] = np.sin(angles)
        enc[:, 1::2] = np.cos(angles)
        return enc

    enc_y = axis_encoding(h, half)
    enc_x = axis_encoding(w, half)
    out = np.zeros((h, w, dim))
    out[:, :, :half] = enc_y[:, None, :]
    out[:, :, half:] = enc_x[None, :, :]
    return out.reshape(h * w, dim)


class TargetTokenizer(Module):
    """Channel projection C -> C' (1x1 conv) + flatten + fixed positions."""

    def __init__(self, name: str, c_in: int, c_tok: int, rng: np.random.Generator):
        super().__init__(name)
        self.proj = self.child(Linear("proj", c_in, c_tok, rng))
        self.c_tok = c_tok
        self._pe_cache: dict[tuple[int, int], np.ndarray] = {}

    def __call__(self, f: Tensor) -> Tensor:
        c, h, w = f.shape
        key = (h, w)
        if key not in self._pe_cache:
            self._pe_cache[key] = sincos_position_encoding_2d(h, w, self.c_tok)
        flat = f.reshape(c, h * w).transpose()
        return self.proj(flat) + Tensor(self._pe_cache[key])


class ReferenceTokenizer(Module):
    """Pixel-weighted spatial compression of stacked reference features.

    The stacked (delta*C, H, W) map is multiplied by sigmoid(phi(f)) with phi
    a learned 1x1 conv to one channel, mean-pooled to K x K, projected to C',
    and given a learned K^2-slot position embedding.
    """

    def __init__(self, name: str, c_in: int, delta: int, c_tok: int, k: int, rng: np.random.Generator):
        super().__init__(name)
        if delta < 1:
            raise ArgumentError("need at least one reference frame")
        self.delta, self.k = delta, k
        c_cat = delta * c_in
        self.weight_proj = self.child(Linear("weight_proj", c_cat, 1, rng))
        self.proj = self.child(Linear("proj", c_cat, c_tok, rng))
        self.pos = self.param("pos", rng.normal(0.0, INIT_STD, size=(k * k, c_tok)))

    def compressed(self, f_refs: list[Tensor]) -> Tensor:
        """Weighted and spatially compressed stack, (delta*C, K, K)."""
        if len(f_refs) != self.delta:
            raise ArgumentError(f"expected {self.delta} reference features, got {len(f_refs)}")
        shapes = {t.shape for t in f_refs}
        if len(shapes) != 1:
            raise ArgumentError(f"reference feature extents differ: {sorted(shapes)}")
        stacked = concat(f_refs, axis=0)
        c, h, w = stacked.shape
        wmap = self.weight_proj(stacked.reshape(c, h * w).transpose()).sigmoid()
        stacked = stacked * wmap.reshape(1, h, w)
        return avg_pool2d(stacked, (self.k, self.k))

    def __call__(self, f_refs: list[Tensor]) -> Tensor:
        comp = self.compressed(f_refs)
        c = comp.shape[0]
        flat = comp.reshape(c, self.k * self.k).transpose()
        return self.proj(flat) + self.pos


class AudioTokenizer(Module):
    """Bi-LSTM over the (1+delta) per-frame audio vectors, then 2 FC + ReLU."""

    def __init__(self, name: str, c_audio: int, delta: int, c_tok: int, hidden: int, rng: np.random.Generator):
        super().__init__(name)
        self.steps = 1 + delta
        self.lstm = self.child(BiLSTM("lstm", c_audio, hidden, 2, rng))
        self.fc1 = self.child(Linear("fc1", 2 * hidden, c_tok, rng))
        self.fc2 = self.child(Linear("fc2", c_tok, c_tok, rng))
        self.pos = self.param("pos", rng.normal(0.0, INIT_STD, size=(self.steps, c_tok)))

    def __call__(self, features: list[Tensor]) -> Tensor:
        if len(features) != self.steps:
            raise ArgumentError(f"expected {self.steps} audio features, got {len(features)}")
        xs = stack([f.reshape(-1) for f in features], axis=0)
        h = self.lstm(xs)
        return self.fc2(self.fc1(h, relu=True)) + self.pos


class FusionEncoder(Module):
    """Stack of pre-LN encoder layers; all tokens attend to all tokens."""

    def __init__(self, name: str, c_tok: int, heads: int, depth: int, rng: np.random.Generator):
        super().__init__(name)
        self.layers = [
            self.child(EncoderLayer(f"layer{i}", c_tok, heads, 4 * c_tok, rng)) for i in range(depth)
        ]

    def __call__(self, x: Tensor) -> Tensor:
        """Fused (L, C') tokens from the (L, C') input tokens."""
        for layer in self.layers:
            x = layer(x)
        return x

    def attention_maps(self, x: Tensor, layout: TokenLayout) -> FusionDiagnostics:
        """Every layer's per-head attention weights over the tokens `x` laid out
        by `layout`, from a second walk of the layers; bit for bit the weights
        a recording forward keeps."""
        attn = []
        for layer in self.layers:
            normed = layer.ln1(x)
            attn.append(layer.attn.weights(normed, normed))
            x = layer(x)
        return FusionDiagnostics(attention=attn, layout=layout)


def split_fused(fused: Tensor, layout: TokenLayout) -> Tensor:
    """The target rows of the fused (L, C') tokens as a (C', H, W) map."""
    tgt = fused[layout.segment_slices()["target"], :]
    return tgt.transpose().reshape(tgt.shape[1], layout.h, layout.w)


def write_pgm(path: str | Path, image: np.ndarray) -> None:
    """Write a 2-D array as an 8-bit binary PGM, max-normalized."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise ArgumentError("PGM export expects a 2-D array")
    peak = image.max()
    scaled = np.zeros_like(image) if peak <= 0 else image / peak
    data = (scaled * 255.0).round().astype(np.uint8)
    header = f"P5\n{image.shape[1]} {image.shape[0]}\n255\n".encode()
    Path(path).write_bytes(header + data.tobytes())


def export_diagnostics(diag: FusionDiagnostics, out_dir: str | Path) -> list[Path]:
    """Dump attention maps as PGM images plus a CSV of segment-mass fractions."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for li, layer in enumerate(diag.attention):
        for hi in range(layer.shape[0]):
            p = out_dir / f"attention_l{li}_h{hi}.pgm"
            write_pgm(p, layer[hi])
            written.append(p)
    mass = diag.segment_mass()
    csv_path = out_dir / "segment_mass.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["source", "destination", "mass_fraction"])
        for si, sname in enumerate(SEGMENT_NAMES):
            for di, dname in enumerate(SEGMENT_NAMES):
                writer.writerow([sname, dname, f"{mass[si, di]:.6f}"])
    written.append(csv_path)
    return written
