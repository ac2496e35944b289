"""Instance decoding: learned queries -> per-slot codes, classes and masks.

A fixed set of N learned queries cross-attends to the fused tokens through a
small transformer decoder, yielding one code per slot.  Class probabilities
come from a linear head; masks come from dynamic convolution: two FC layers
turn each code into per-channel filters that contract with the shared
segmentation map (M = theta^T S), producing raw logits.  Sigmoid/threshold
happen in the loss and postprocessing, not here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError
from .nn import INIT_STD, DecoderLayer, LayerNorm, Linear, Module
from .tensor import Tensor, softmax


@dataclass
class FramePrediction:
    """Per-frame outputs; raw logits plus thresholded views once postprocessed."""

    class_probs: np.ndarray  # (N, classes+1), last column is the no-object class
    mask_logits: np.ndarray  # (N, H_o, W_o)
    frame_index: int = 0
    binary_masks: np.ndarray | None = None  # logit >= log(t / (1 - t)), t = mask_threshold
    fired: np.ndarray | None = None  # max non-empty class prob > class_threshold
    scores: np.ndarray | None = None
    identities: np.ndarray | None = None  # filled by the tracker, -1 = unfired

    @property
    def num_slots(self) -> int:
        return self.class_probs.shape[0]


class InstanceHead(Module):
    """Learned instance query, transformer decoder, class and mask heads."""

    def __init__(
        self,
        name: str,
        c_tok: int,
        c_code: int,
        c_seg: int,
        num_slots: int,
        num_classes: int,
        heads: int,
        depth: int,
        rng: np.random.Generator,
    ):
        super().__init__(name)
        self.query = self.param("query", rng.normal(0.0, INIT_STD, size=(num_slots, c_tok)))
        self.layers = [
            self.child(DecoderLayer(f"layer{i}", c_tok, heads, 4 * c_tok, rng)) for i in range(depth)
        ]
        # the pre-LN decoder layers leave their residual stream unnormalized;
        # this norm takes each slot's row to zero mean and unit variance (then
        # gain and bias) before out_proj.  It does not bound the mask logits:
        # out_proj and the theta layers can still scale them without limit
        self.final_norm = self.child(LayerNorm("final_norm", c_tok))
        self.out_proj = self.child(Linear("out_proj", c_tok, c_code, rng))
        self.class_head = self.child(Linear("class_head", c_code, num_classes + 1, rng))
        self.theta_fc1 = self.child(Linear("theta_fc1", c_code, c_code, rng))
        self.theta_fc2 = self.child(Linear("theta_fc2", c_code, c_seg, rng))

    def decode(self, memory: Tensor) -> Tensor:
        """Decode fused tokens into the (N, C_e) instance code, one slot per row."""
        if memory.ndim != 2:
            raise ArgumentError("decoder memory must be a (L, C') matrix")
        q = self.query
        for layer in self.layers:
            q = layer(q, memory)
        return self.out_proj(self.final_norm(q))

    def predict_class(self, code: Tensor) -> Tensor:
        """Per-slot probabilities over classes + the no-object class."""
        return softmax(self.class_head(code), axis=1)

    def dynamic_masks(self, code: Tensor, seg: Tensor) -> Tensor:
        """Raw mask logits (N, H_o, W_o) via M = theta^T S for the (N, C_e)
        code and the (C_o, H_o, W_o) segmentation map S."""
        theta = self.theta_fc2(self.theta_fc1(code, relu=True))  # (N, C_o)
        c_o, h_o, w_o = seg.shape
        if theta.shape[1] != c_o:
            raise ArgumentError(f"filter channels {theta.shape[1]} mismatch segmentation map {c_o}")
        flat = theta @ seg.reshape(c_o, h_o * w_o)
        return flat.reshape(code.shape[0], h_o, w_o)
