"""Offline analyzers: streaming latency arithmetic, Lipschitz bounds, and the
order-stability probe relating input change to output change across frames.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import ArgumentError
from .linalg import OPERATOR_ORDERS, norm_order, operator_norm, spectral_norm
from .matching import shrink_mask
from .model import RCFModel
from .stream import mask_iou, stream_clip
from .synthav import SpriteClip
from .tensor import Tensor, no_grad, sigmoid


# ---------------------------------------------------------------------------
# latency


def latency_model(fps_stream: float, fps_model: float, n_f: int = 1) -> tuple[float, float]:
    """(online, offline) per-frame latency in seconds.

    Online waits for one frame to stream and one model pass; offline waits
    for the whole clip to stream and process.
    """
    if not (0 < fps_stream < math.inf and 0 < fps_model < math.inf) or n_f <= 0:
        raise ArgumentError("latency model needs strictly positive, finite inputs")
    online = 1.0 / fps_stream + 1.0 / fps_model
    return online, online * n_f


# ---------------------------------------------------------------------------
# Lipschitz bounds


@dataclass
class NormEntry:
    name: str
    kind: str  # conv | linear | attention
    norm: float | None
    note: str = ""


@dataclass
class LipschitzReport:
    p: object
    entries: list[NormEntry] = field(default_factory=list)
    products: dict[str, float] = field(default_factory=dict)
    attention_ratios: dict[str, float] = field(default_factory=dict)


def conv_operator_norm(w: np.ndarray, in_shape: tuple, stride: int, pad: int, p) -> float:
    """Operator norm of the convolution unrolled at the given input extent.

    p=2 runs power iteration with the convolution and its adjoint (no matrix
    is materialized); p=inf evaluates exact row sums by convolving |w| with
    an all-ones input.
    """
    w = np.asarray(getattr(w, "data", w), dtype=np.float64)
    if norm_order(p, OPERATOR_ORDERS) == 2:
        return spectral_norm(
            lambda v: _kernels.conv2d_grad_input(_kernels.conv2d_forward(v, w, stride, pad), w, in_shape, stride, pad),
            in_shape,
        )
    sums = _kernels.conv2d_forward(np.ones(in_shape), np.abs(w), stride, pad)
    return float(sums.max())


def _flat_norm(x: np.ndarray, p: float) -> float:
    """p-norm of the flattened array; `p` is a parsed `norm_order`."""
    flat = np.abs(np.ravel(x))
    if p == 1:
        return float(flat.sum())
    if p == 2:
        return float(np.linalg.norm(flat))
    return float(flat.max())


def backbone_norms(model: RCFModel, p) -> list[NormEntry]:
    """Per-conv operator norms at the configured input extents."""
    cfg = model.cfg
    entries = []
    h, w = cfg.image_h, cfg.image_w
    c_in = 3
    for name, weight, stride, pad in model.backbone.conv_weights():
        entries.append(NormEntry(name, "conv", conv_operator_norm(weight.data, (c_in, h, w), stride, pad, p)))
        c_in = weight.shape[0]
        h, w = h // stride, w // stride
    return entries


LOCAL_RATIO_TRIALS = 20  # random points per attention local ratio
LOCAL_RATIO_STEP = 1e-3  # scale of the random perturbation at each point


def _attention_local_ratio(fn, shape: tuple, p) -> float:
    rng = np.random.default_rng(1234)
    worst = 0.0
    with no_grad():
        for _ in range(LOCAL_RATIO_TRIALS):
            x = rng.standard_normal(shape)
            dx = rng.standard_normal(shape) * LOCAL_RATIO_STEP
            fx = fn(Tensor(x))
            fy = fn(Tensor(x + dx))
            worst = max(worst, _flat_norm(fy.data - fx.data, p) / _flat_norm(dx, p))
    return worst


def lipschitz_bound(model: RCFModel, p) -> LipschitzReport:
    """Per-layer norms, products for the feed-forward subnetworks, and
    empirical local ratios for the attention stacks (globally unbounded)."""
    p = norm_order(p, OPERATOR_ORDERS)
    report = LipschitzReport(p=p)
    cfg = model.cfg

    bb = backbone_norms(model, p)
    report.entries.extend(bb)
    report.products["backbone"] = float(np.prod([e.norm for e in bb]))

    fh, fw = cfg.feature_hw
    dec = model.mask_decoder
    c_skip1, c_skip2 = model.backbone.skip_channels
    dec_plan = [
        (dec.lat1, (cfg.token_dim, fh * 2, fw * 2)),
        (dec.ref1, (c_skip2, fh * 2, fw * 2)),
        (dec.lat2, (c_skip2, fh * 4, fw * 4)),
        (dec.ref2, (c_skip1, fh * 4, fw * 4)),
        (dec.out, (c_skip1, fh * 4, fw * 4)),
    ]
    dec_entries = []
    for conv, in_shape in dec_plan:
        norm = conv_operator_norm(conv.w.data, in_shape, conv.stride, conv.pad, p)
        dec_entries.append(NormEntry(f"mask_decoder.{conv.name}", "conv", norm))
    report.entries.extend(dec_entries)
    report.products["mask_decoder"] = float(np.prod([e.norm for e in dec_entries]))

    # linear chains in the instance head (operator norms act on x @ W, i.e. W^T)
    fc_entries = [
        NormEntry("head.theta_fc1", "linear", operator_norm(model.head.theta_fc1.w.data.T, p)),
        NormEntry("head.theta_fc2", "linear", operator_norm(model.head.theta_fc2.w.data.T, p)),
    ]
    report.entries.extend(fc_entries)
    report.products["mask_filter_mlp"] = float(np.prod([e.norm for e in fc_entries]))
    class_entry = NormEntry("head.class_head", "linear", operator_norm(model.head.class_head.w.data.T, p))
    report.entries.append(class_entry)
    report.products["class_head"] = class_entry.norm

    layout_len = model.token_layout(fh, fw).total
    report.entries.append(NormEntry("encoder", "attention", None, "unbounded globally; local ratio reported"))

    def run_encoder(x: Tensor) -> Tensor:
        for layer in model.encoder.layers:
            x = layer(x)
        return x

    report.attention_ratios["encoder"] = _attention_local_ratio(run_encoder, (layout_len, cfg.token_dim), p)

    report.entries.append(NormEntry("head.decoder", "attention", None, "unbounded globally; local ratio reported"))

    def run_decoder(mem: Tensor) -> Tensor:
        q = model.head.query
        for layer in model.head.layers:
            q = layer(q, mem)
        return q

    report.attention_ratios["head.decoder"] = _attention_local_ratio(
        run_decoder, (layout_len, cfg.token_dim), p
    )
    return report


# ---------------------------------------------------------------------------
# order-stability probe


@dataclass
class ProbeRow:
    t: int  # transition into frame t
    eps: float  # input discrepancy
    delta: float  # output discrepancy
    ratio: float
    tracked: int  # gt instances followed across the transition
    switched: int  # of those, how many changed identity
    changed: bool


@dataclass
class ProbeReport:
    rows: list[ProbeRow]
    switch_rate: float


PROBE_MATCH_IOU = 0.3  # least IoU at which a fired slot follows a ground truth


def order_stability_probe(model: RCFModel, clip: SpriteClip, p=1) -> ProbeReport:
    """Per consecutive frame pair: input/output discrepancy and identity events.

    The output vector concatenates class probabilities and sigmoid masks over
    all slots.  A switch is a ground-truth instance whose matched fired slot
    carries a different identity than on the previous frame.
    """
    if clip.num_frames < 2:
        raise ArgumentError("probe needs at least 2 frames")
    p = norm_order(p)
    cfg = model.cfg
    preds, _ = stream_clip(model, clip)
    outputs = []
    per_frame_match = []  # gt index -> identity at that frame (or None)
    for t, pred in enumerate(preds):
        soft = sigmoid(pred.mask_logits)
        outputs.append(np.concatenate([pred.class_probs.ravel(), soft.ravel()]))

        match: dict[int, int] = {}
        visible = np.flatnonzero(clip.visibility[t])
        slots = np.flatnonzero(pred.fired)
        if visible.size and slots.size:
            gt_small = shrink_mask(clip.masks(t)[visible], cfg.mask_hw)
            iou = mask_iou(gt_small, pred.binary_masks[slots])
            for g, row in zip(visible, iou):
                best = int(np.argmax(row))  # first maximum: lowest fired slot wins a tie
                if row[best] > 0.0 and row[best] >= PROBE_MATCH_IOU:
                    match[int(g)] = int(pred.identities[slots[best]])
        per_frame_match.append(match)

    rows = []
    total_tracked = 0
    total_switched = 0
    for t in range(1, clip.num_frames):
        eps = _flat_norm(
            clip.frames[t].astype(np.float64) - clip.frames[t - 1].astype(np.float64), p
        )
        delta = _flat_norm(outputs[t] - outputs[t - 1], p)
        if eps == 0.0:
            ratio = 0.0 if delta < 1e-12 else math.inf
        else:
            ratio = delta / eps
        tracked = 0
        switched = 0
        for g, ident in per_frame_match[t].items():
            prev = per_frame_match[t - 1].get(g)
            if prev is None:
                continue
            tracked += 1
            if prev != ident:
                switched += 1
        total_tracked += tracked
        total_switched += switched
        rows.append(ProbeRow(t, eps, delta, ratio, tracked, switched, changed=switched > 0))
    return ProbeReport(rows=rows, switch_rate=total_switched / total_tracked if total_tracked else 0.0)
