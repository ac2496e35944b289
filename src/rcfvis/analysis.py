"""Offline analyzers: streaming latency arithmetic, and the order-stability
probe counting identity switches of ground-truth instances across frames.
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


@dataclass
class ProbeRow:
    t: int  # transition into frame t
    tracked: int  # gt instances followed across the transition
    switched: int  # of those, how many changed identity


@dataclass
class ProbeReport:
    rows: list[ProbeRow]
    switch_rate: float


PROBE_MATCH_IOU = 0.3  # least IoU at which a fired slot follows a ground truth


def order_stability_probe(model: RCFModel, clip: SpriteClip) -> ProbeReport:
    """Per consecutive frame pair: the ground-truth instances followed across
    it and how many of them switched identity.

    A ground truth follows the fired slot that overlaps it most, at IoU at
    least `PROBE_MATCH_IOU`; a switch is a ground truth whose slot carries a
    different identity than on the previous frame.
    """
    if clip.num_frames < 2:
        raise ArgumentError("probe needs at least 2 frames")
    preds, _ = stream_clip(model, clip)
    per_frame_match = []  # gt index -> identity at that frame
    for t, pred in enumerate(preds):
        match: dict[int, int] = {}
        visible = np.flatnonzero(clip.visibility[t])
        slots = np.flatnonzero(pred.fired)
        if visible.size and slots.size:
            gt_small = shrink_mask(clip.masks(t)[visible], pred.binary_masks.shape[1:])
            iou = mask_iou(gt_small, pred.binary_masks[slots])
            for g, row in zip(visible, iou):
                best = int(np.argmax(row))  # first maximum: lowest fired slot wins a tie
                if row[best] > 0.0 and row[best] >= PROBE_MATCH_IOU:
                    match[int(g)] = int(pred.identities[slots[best]])
        per_frame_match.append(match)

    rows = []
    for t in range(1, clip.num_frames):
        prev = per_frame_match[t - 1]
        followed = [ident != prev[g] for g, ident in per_frame_match[t].items() if g in prev]
        rows.append(ProbeRow(t, tracked=len(followed), switched=sum(followed)))
    total_tracked = sum(r.tracked for r in rows)
    switch_rate = sum(r.switched for r in rows) / total_tracked if total_tracked else 0.0
    return ProbeReport(rows=rows, switch_rate=switch_rate)
