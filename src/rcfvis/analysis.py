"""Offline analyzers: streaming latency arithmetic, and the order-stability
probe relating input change to output change across frames.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError
from .matching import shrink_mask
from .model import RCFModel
from .stream import mask_iou, stream_clip
from .synthav import SpriteClip
from .tensor import sigmoid


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
# order-stability probe

NORM_ORDERS = {"1": 1.0, "2": 2.0, "inf": math.inf}  # the `probe_norm_p` choices


def norm_order(p) -> float:
    """The norm order a `probe_norm_p` value names, given as it or as a number."""
    try:
        return NORM_ORDERS[str(p)]
    except KeyError:
        raise ArgumentError(f"unsupported norm order {p!r} (use 1, 2 or inf)") from None


def _flat_norm(x: np.ndarray, p: float) -> float:
    """p-norm of the flattened array; `p` is a parsed `norm_order`."""
    flat = np.abs(np.ravel(x))
    if p == 1:
        return float(flat.sum())
    if p == 2:
        return math.sqrt(flat.dot(flat))
    return float(flat.max())


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
