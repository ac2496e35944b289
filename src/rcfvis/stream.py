"""Online streaming inference: per-frame feature cache and identity tracking.

Feature extraction runs exactly once per streamed frame; reference features
come from a ring buffer of the delta most recent frames (replicating the
oldest available entry near the stream start).  Identities follow the slot
order: a fired slot inherits its own slot's previous identity, except when
another slot's previous mask overlaps it with IoU > 0.5, in which case the
overlap wins.  The IoUs of all fired slots against all previous masks come
from one matrix product per frame (`mask_iou`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError, StateError
from .instance_head import FramePrediction
from .model import RCFModel
from .synthav import SpriteClip
from .tensor import Tensor, no_grad, sigmoid
from .videonet import FrameFeature

IOU_OVERRIDE_THRESHOLD = 0.5


@dataclass
class RefCache:
    """Ring buffer of the delta most recent frame (and audio) features."""

    capacity: int
    features: list[FrameFeature] = field(default_factory=list)
    audio: list[Tensor] = field(default_factory=list)
    frames_processed: int = 0

    def push(self, feat: FrameFeature, audio_feat: Tensor | None = None) -> None:
        if self.capacity > 0:
            self.features.append(feat)
            del self.features[: -self.capacity]
            if audio_feat is not None:
                self.audio.append(audio_feat)
                del self.audio[: -self.capacity]
        self.frames_processed += 1

    def padded_features(self, current: FrameFeature) -> list[FrameFeature]:
        if self.capacity == 0:
            return []
        avail = list(self.features)
        if not avail:
            avail = [current]
        while len(avail) < self.capacity:
            avail.insert(0, avail[0])
        return avail

    def padded_audio(self, current: Tensor) -> list[Tensor]:
        avail = list(self.audio)
        if not avail:
            avail = [current]
        while len(avail) < self.capacity:
            avail.insert(0, avail[0])
        return avail + [current]


@dataclass
class TrackRecord:
    frame: int
    slot: int
    class_id: int
    score: float
    mask: np.ndarray  # bool, prediction grid


@dataclass
class TrackState:
    """Slot -> identity registry with per-slot last-frame masks."""

    num_slots: int
    slot_ids: list = field(default_factory=list)
    last_masks: list = field(default_factory=list)
    gaps: list = field(default_factory=list)
    next_id: int = 0
    history: dict[int, list[TrackRecord]] = field(default_factory=dict)

    def __post_init__(self):
        if not self.slot_ids:
            self.slot_ids = [None] * self.num_slots
            self.last_masks = [None] * self.num_slots
            self.gaps = [0] * self.num_slots

    def live_identities(self) -> list[int]:
        return [i for i in self.slot_ids if i is not None]


def mask_iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of every mask in `a` (N_a, ...) with every mask in `b` (N_b, ...).

    Returns (N_a, N_b) float64; a pair whose union is empty scores 0.  The
    intersections are one float64 product of the flattened 0/1 masks, which
    is exact for integer counts and runs on BLAS.
    """
    fa = np.asarray(a, dtype=bool).reshape(len(a), -1).astype(np.float64)
    fb = np.asarray(b, dtype=bool).reshape(len(b), -1).astype(np.float64)
    inter = fa @ fb.T
    union = fa.sum(axis=1)[:, None] + fb.sum(axis=1)[None, :] - inter
    return np.divide(inter, union, out=np.zeros_like(inter), where=union > 0)


def postprocess(raw: FramePrediction, num_classes: int, class_threshold: float = 0.4, mask_threshold: float = 0.5) -> FramePrediction:
    """Binarize masks (sigmoid >= threshold) and fire slots above the class bar."""
    probs = raw.class_probs
    scores = probs[:, :num_classes].max(axis=1)
    raw.binary_masks = sigmoid(raw.mask_logits) >= mask_threshold
    raw.fired = scores > class_threshold
    raw.scores = scores
    return raw


def track_update(
    state: TrackState,
    pred: FramePrediction,
    max_gap: int = 5,
    iou_override: bool = True,
) -> np.ndarray:
    """Assign identities to fired slots; returns (N,) identities, -1 unfired.

    Pass 1 (optional override): a fired slot whose mask overlaps some other
    slot's previous mask with IoU > 0.5 inherits that identity (largest IoU
    first, ties to the lower previous slot); all fired x previous IoUs are
    one `mask_iou` call.  Pass 2: remaining fired slots
    keep their own slot's identity or get a fresh one.  Unfired slots hold
    their identity for up to max_gap frames.
    """
    if pred.fired is None or pred.binary_masks is None:
        raise StateError("track_update needs a postprocessed prediction")
    n = state.num_slots
    if pred.num_slots != n:
        raise ArgumentError(f"prediction has {pred.num_slots} slots, tracker expects {n}")
    prev_ids = list(state.slot_ids)
    prev_masks = list(state.last_masks)
    fired = pred.fired
    assigned: dict[int, int] = {}
    claimed: set[int] = set()

    if iou_override:
        candidates = []
        rows = np.flatnonzero(fired)
        cols = [j for j in range(n) if prev_ids[j] is not None and prev_masks[j] is not None]
        if rows.size and cols:
            iou = mask_iou(pred.binary_masks[rows], np.stack([prev_masks[j] for j in cols]))
            for r, c in zip(*np.nonzero(iou > IOU_OVERRIDE_THRESHOLD)):
                i, j = int(rows[r]), cols[c]
                if i != j:
                    candidates.append((float(iou[r, c]), j, i))
        candidates.sort(key=lambda c: (-c[0], c[1], c[2]))
        for iou, j, i in candidates:
            if i in assigned or prev_ids[j] in claimed:
                continue
            assigned[i] = prev_ids[j]
            claimed.add(prev_ids[j])

    for i in range(n):
        if not fired[i] or i in assigned:
            continue
        own = prev_ids[i]
        if own is not None and own not in claimed:
            assigned[i] = own
        else:
            assigned[i] = state.next_id
            state.next_id += 1
        claimed.add(assigned[i])

    identities = np.full(n, -1, dtype=np.int64)
    for i in range(n):
        if fired[i]:
            ident = assigned[i]
            identities[i] = ident
            state.slot_ids[i] = ident
            state.last_masks[i] = pred.binary_masks[i].copy()
            state.gaps[i] = 0
            class_id = int(np.argmax(pred.class_probs[i, :-1]))
            state.history.setdefault(ident, []).append(
                TrackRecord(pred.frame_index, i, class_id, float(pred.scores[i]), pred.binary_masks[i].copy())
            )
        else:
            own = prev_ids[i]
            if own is not None and own not in claimed and state.gaps[i] + 1 <= max_gap:
                state.slot_ids[i] = own
                state.gaps[i] += 1
            else:
                state.slot_ids[i] = None
                state.gaps[i] = 0
            state.last_masks[i] = None

    live = state.live_identities()
    if len(live) != len(set(live)):
        raise StateError("tracker invariant violated: duplicate live identities")
    pred.identities = identities
    return identities


def infer_frame(
    model: RCFModel,
    frame: np.ndarray,
    audio_window: np.ndarray | None,
    cache: RefCache,
    state: TrackState,
    frame_index: int | None = None,
) -> FramePrediction:
    """One online step: extract once, fuse cached references, track, cache."""
    if not isinstance(model, RCFModel):
        raise StateError("infer_frame needs an initialized model")
    if frame_index is not None and frame_index != cache.frames_processed:
        raise StateError(
            f"cache is at stream position {cache.frames_processed}, got frame {frame_index}"
        )
    cfg = model.cfg
    idx = cache.frames_processed
    with no_grad():
        feat = model.extract(np.asarray(frame, dtype=np.float64), idx)
        refs = cache.padded_features(feat)
        audio_feats = None
        current_audio = None
        if cfg.audio_enabled:
            if audio_window is None:
                raise ArgumentError("model expects an audio window per frame")
            current_audio = model.audio_feature(np.asarray(audio_window, dtype=np.float64))
            audio_feats = cache.padded_audio(current_audio)
        output = model.forward_features(feat, refs, audio_feats)
    pred = postprocess(
        output.to_prediction(idx), cfg.num_classes, cfg.class_threshold, cfg.mask_threshold
    )
    track_update(state, pred, max_gap=cfg.track_max_gap, iou_override=cfg.iou_override)
    cache.push(feat, current_audio)
    return pred


def stream_clip(model: RCFModel, clip: SpriteClip) -> tuple[list[FramePrediction], TrackState]:
    """Run the online pipeline over a whole clip."""
    cfg = model.cfg
    cache = RefCache(capacity=cfg.ref_frames)
    state = TrackState(num_slots=cfg.num_slots)
    preds = []
    for t in range(clip.num_frames):
        window = clip.audio_window(t).astype(np.float64) if cfg.audio_enabled else None
        preds.append(infer_frame(model, clip.frames[t].astype(np.float64), window, cache, state, t))
    return preds, state
