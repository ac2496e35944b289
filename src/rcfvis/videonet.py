"""Shared frame backbone and the FPN-style mask-feature decoder."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError
from .nn import Conv2dLayer, GroupNorm, Module
from .tensor import Tensor, upsample2x

STRIDE = 8
NORM_GROUPS = 4


@dataclass
class FrameFeature:
    f: Tensor  # (C, H_img/8, W_img/8)
    skips: tuple[Tensor, Tensor]  # from blocks 1 and 2, strides 2 and 4


@dataclass
class SegmentationMap:
    values: Tensor  # (C_o, H_img/2, W_img/2)


class Backbone(Module):
    """Four 3x3 conv blocks (group-norm, ReLU), stride-2 downsampling at 1-3.

    One parameter set serves target and reference frames.
    """

    def __init__(self, name: str, out_channels: int, rng: np.random.Generator):
        super().__init__(name)
        if out_channels % 4:
            raise ArgumentError("backbone output channels must be divisible by 4")
        chans = [out_channels // 4, out_channels // 2, out_channels, out_channels]
        strides = [2, 2, 2, 1]
        self.blocks = []
        c_prev = 3
        for i, (c, s) in enumerate(zip(chans, strides)):
            conv = self.child(Conv2dLayer(f"b{i}_conv", c_prev, c, 3, rng, stride=s, pad=1))
            norm = self.child(GroupNorm(f"b{i}_norm", NORM_GROUPS, c))
            self.blocks.append((conv, norm))
            c_prev = c
        self.skip_channels = (chans[0], chans[1])

    def __call__(self, frame: Tensor) -> FrameFeature:
        if frame.ndim != 3 or frame.shape[0] != 3:
            raise ArgumentError("backbone expects a (3, H, W) frame")
        if frame.shape[1] % STRIDE or frame.shape[2] % STRIDE:
            raise ArgumentError(f"frame extents must be multiples of the stride {STRIDE}")
        x = frame
        skips = []
        for i, (conv, norm) in enumerate(self.blocks):
            x = norm(conv(x)).relu()
            if i < 2:
                skips.append(x)
        return FrameFeature(f=x, skips=(skips[0], skips[1]))

    def conv_weights(self) -> list[tuple[str, Tensor, int, int]]:
        """(name, weight, stride, pad) per conv, for the Lipschitz analyzer."""
        return [(f"{self.name}.b{i}_conv", conv.w, conv.stride, conv.pad) for i, (conv, _) in enumerate(self.blocks)]


class MaskFeatureDecoder(Module):
    """Two upsample + lateral-conv + add-skip + 3x3-conv stages, then 1x1 out.

    Convs plus ReLU only.
    """

    def __init__(self, name: str, c_in: int, skip_channels: tuple[int, int], c_out: int, rng: np.random.Generator):
        super().__init__(name)
        c_skip1, c_skip2 = skip_channels  # block1 (stride 2), block2 (stride 4)
        self.lat1 = self.child(Conv2dLayer("lat1", c_in, c_skip2, 1, rng))
        self.ref1 = self.child(Conv2dLayer("ref1", c_skip2, c_skip2, 3, rng, pad=1))
        self.lat2 = self.child(Conv2dLayer("lat2", c_skip2, c_skip1, 1, rng))
        self.ref2 = self.child(Conv2dLayer("ref2", c_skip1, c_skip1, 3, rng, pad=1))
        self.out = self.child(Conv2dLayer("out", c_skip1, c_out, 1, rng))

    def __call__(self, fused: Tensor, skips: tuple[Tensor, Tensor]) -> SegmentationMap:
        skip1, skip2 = skips
        x = self.lat1(upsample2x(fused))
        if x.shape != skip2.shape:
            raise ArgumentError(f"stage-1 shape {x.shape} mismatches skip {skip2.shape}")
        x = self.ref1(x + skip2).relu()
        x = self.lat2(upsample2x(x))
        if x.shape != skip1.shape:
            raise ArgumentError(f"stage-2 shape {x.shape} mismatches skip {skip1.shape}")
        x = self.ref2(x + skip1).relu()
        return SegmentationMap(values=self.out(x))
