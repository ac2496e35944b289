"""Online streaming inference: per-frame feature cache and identity tracking.

Feature extraction runs exactly once per streamed frame.  Frame t takes
the references that training samples for it, `model.reference_indices`
(t-delta..t-1, frame 0 standing in before the stream start); `RefCache`
keeps, by stream position, the features of just the frames that a later
frame can still reference.  Identities follow the slot order: a fired slot
inherits its own slot's previous identity, except when another slot's
previous mask overlaps it with IoU > 0.5, in which case the overlap wins.
The IoUs of all fired slots against all previous masks come from one
matrix product per frame (`mask_iou`).  The tracker keeps O(slots) state;
a stream's tracks come from its predictions (`viseval.pred_tracks`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError, StateError
from .instance_head import FramePrediction
from .model import RCFModel, reference_indices
from .synthav import SpriteClip
from .tensor import Tensor, no_grad

IOU_OVERRIDE_THRESHOLD = 0.5


@dataclass
class RefCache:
    """Frame (and audio) features by stream position: after frame t, those
    of frames t-capacity+1..t, all that later frames can reference.  A
    frame's entry is its backbone output `FrameFeature.f`, without the skip
    maps that only its own mask decoder reads."""

    capacity: int
    features: dict[int, Tensor] = field(default_factory=dict)
    audio: dict[int, Tensor] = field(default_factory=dict)
    frames_processed: int = 0


@dataclass
class TrackState:
    """Slot -> identity registry, plus the last frame's fired slots and masks."""

    num_slots: int
    slot_ids: list = field(default_factory=list)
    gaps: list = field(default_factory=list)
    next_id: int = 0
    prev_slots: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.intp))
    prev_masks: np.ndarray | None = None  # (len(prev_slots), H_o, W_o) bool

    def __post_init__(self):
        if not self.slot_ids:
            self.slot_ids = [None] * self.num_slots
            self.gaps = [0] * self.num_slots

    def live_identities(self) -> list[int]:
        return [i for i in self.slot_ids if i is not None]


def mask_iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of every mask in `a` (N_a, ...) with every mask in `b` (N_b, ...).

    Returns (N_a, N_b) float64; a pair whose union is empty scores 0.  The
    intersections are one float32 product of the flattened 0/1 masks on
    BLAS, and the areas are nonzero counts.  Every partial sum is an integer
    no larger than the pixel count, which float32 holds exactly up to 2^24
    (a mask of `RunConfig` has at most 256 x 256 pixels), so the float64
    quotients are those of exact counts.
    """
    fa = np.asarray(a, dtype=bool).reshape(len(a), -1)
    fb = np.asarray(b, dtype=bool).reshape(len(b), -1)
    inter = (fa.astype(np.float32) @ fb.astype(np.float32).T).astype(np.float64)
    union = np.count_nonzero(fa, axis=1)[:, None] + np.count_nonzero(fb, axis=1)[None, :] - inter
    return np.divide(inter, union, out=np.zeros_like(inter), where=union > 0)


def postprocess(
    raw: FramePrediction, num_classes: int, *, class_threshold: float, mask_threshold: float
) -> FramePrediction:
    """Binarize masks and fire slots above the class bar.

    A mask pixel is on when its logit reaches log(t / (1 - t)) for
    t = mask_threshold, the logit where the sigmoid crosses t: -inf at
    t = 0, +inf at t = 1.  Comparing logits skips a sigmoid over the whole
    (N, H_o, W_o) array.  At t = 0.5 the bar is 0; a float sigmoid would
    round logits in (-2^-54, 0) up to exactly 0.5 and turn them on too.
    """
    t = mask_threshold
    bar = -math.inf if t <= 0.0 else math.inf if t >= 1.0 else math.log(t) - math.log1p(-t)
    probs = raw.class_probs
    scores = probs[:, :num_classes].max(axis=1)
    raw.binary_masks = raw.mask_logits >= bar
    raw.fired = scores > class_threshold
    raw.scores = scores
    return raw


def track_update(
    state: TrackState,
    pred: FramePrediction,
    *,
    max_gap: int,
    iou_override: bool,
) -> np.ndarray:
    """Assign identities to fired slots; returns (N,) identities, -1 unfired.

    Pass 1 (optional override): a fired slot whose mask overlaps some other
    slot's previous mask with IoU > 0.5 inherits that identity (largest IoU
    first, ties to the lower previous slot); all fired x previous IoUs are
    one `mask_iou` call.  Pass 2: remaining fired slots
    keep their own slot's identity or get a fresh one.  Unfired slots hold
    their identity for up to max_gap frames.  Of the prediction, the state
    keeps only the fired slots and their masks, for the next frame's pass 1.
    """
    if pred.fired is None or pred.binary_masks is None:
        raise StateError("track_update needs a postprocessed prediction")
    n = state.num_slots
    if pred.num_slots != n:
        raise ArgumentError(f"prediction has {pred.num_slots} slots, tracker expects {n}")
    prev_ids = list(state.slot_ids)
    fired = pred.fired
    rows = np.flatnonzero(fired)
    masks = pred.binary_masks[rows]
    assigned: dict[int, int] = {}
    claimed: set[int] = set()

    if iou_override:
        cols = state.prev_slots
        if rows.size and cols.size:
            iou = mask_iou(masks, state.prev_masks)
            r, c = np.nonzero(iou > IOU_OVERRIDE_THRESHOLD)
            cur, prev, overlap = rows[r], cols[c], iou[r, c]
            other = cur != prev
            cur, prev, overlap = cur[other], prev[other], overlap[other]
            order = np.lexsort((cur, prev, -overlap))  # largest IoU first, then lower j, then lower i
            for i, j in zip(cur[order].tolist(), prev[order].tolist()):
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
            state.gaps[i] = 0
        else:
            own = prev_ids[i]
            if own is not None and own not in claimed and state.gaps[i] + 1 <= max_gap:
                state.slot_ids[i] = own
                state.gaps[i] += 1
            else:
                state.slot_ids[i] = None
                state.gaps[i] = 0
    state.prev_slots, state.prev_masks = rows, masks

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
    indices = reference_indices(idx, cache.capacity)
    with no_grad():
        target = model.extract(frame)
        cache.features[idx] = target.f
        refs = [cache.features[i] for i in indices]
        audio_feats = None
        if cfg.audio_enabled:
            if audio_window is None:
                raise ArgumentError("model expects an audio window per frame")
            cache.audio[idx] = model.audio_feature(audio_window)
            audio_feats = [cache.audio[i] for i in indices + [idx]]
        probs, masks = model.forward_features(target, refs, audio_feats)
    pred = postprocess(
        FramePrediction(class_probs=probs.data, mask_logits=masks.data, frame_index=idx),
        cfg.num_classes,
        class_threshold=cfg.class_threshold,
        mask_threshold=cfg.mask_threshold,
    )
    track_update(state, pred, max_gap=cfg.track_max_gap, iou_override=cfg.iou_override)
    cache.features.pop(idx - cache.capacity, None)
    cache.audio.pop(idx - cache.capacity, None)
    cache.frames_processed += 1
    return pred


def stream_clip(model: RCFModel, clip: SpriteClip) -> tuple[list[FramePrediction], TrackState]:
    """Run the online pipeline over a whole clip."""
    cfg = model.cfg
    cache = RefCache(capacity=cfg.ref_frames)
    state = TrackState(num_slots=cfg.num_slots)
    preds = []
    for t in range(clip.num_frames):
        window = clip.audio_window(t) if cfg.audio_enabled else None
        preds.append(infer_frame(model, clip.frames[t], window, cache, state, t))
    return preds, state
