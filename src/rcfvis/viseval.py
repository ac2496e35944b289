"""Video instance segmentation scoring: track-level AP over IoU thresholds.

Track IoU accumulates intersections and unions over frames (missing frames
count as empty masks).  For each class and IoU threshold in 0.50:0.05:0.95,
predictions are greedily matched in descending score to unmatched same-class
ground-truth tracks; AP is the 101-point interpolated area under the
precision-recall curve, averaged over thresholds and classes; AR@k keeps
only the top-k scored predictions per video.

From the same streamed predictions, the identity-switch rate counts how
often a ground-truth instance followed from one frame to the next changed
identity: the measure of how well the stream keeps slot order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import MASK_STRIDE
from .errors import ArgumentError, FormatError
from .instance_head import FramePrediction
from .matching import shrink_mask
from .model import RCFModel
from .stream import mask_iou, stream_clip
from .synthav import SpriteClip

IOU_THRESHOLDS = tuple(round(0.5 + 0.05 * k, 2) for k in range(10))
PROBE_MATCH_IOU = 0.3  # least IoU at which a fired slot follows a ground truth


@dataclass
class PredTrack:
    class_id: int
    score: float
    masks: dict[int, np.ndarray]  # frame -> bool mask
    identity: int = -1
    frame_scores: dict[int, float] = field(default_factory=dict)  # frame -> score, in frame order


@dataclass
class GtTrack:
    class_id: int
    masks: dict[int, np.ndarray]


def track_iou(pred: PredTrack | GtTrack, gt: PredTrack | GtTrack) -> float:
    """Spatio-temporal IoU: sum of intersections over sum of unions."""
    inter = 0
    union = 0
    for t in set(pred.masks) | set(gt.masks):
        p = pred.masks.get(t)
        g = gt.masks.get(t)
        if p is None:
            union += int(g.sum())
        elif g is None:
            union += int(p.sum())
        else:
            inter += int(np.logical_and(p, g).sum())
            union += int(np.logical_or(p, g).sum())
    return inter / union if union else 0.0


def _ap_101(tp_flags: list[bool], npos: int) -> float:
    if npos == 0:
        return 0.0
    tp = np.cumsum(tp_flags) if tp_flags else np.zeros(0)
    fp = np.cumsum([not f for f in tp_flags]) if tp_flags else np.zeros(0)
    recall = tp / npos
    precision = tp / np.maximum(tp + fp, 1)
    ap = 0.0
    for r in np.linspace(0.0, 1.0, 101):
        mask = recall >= r - 1e-12
        ap += precision[mask].max() if mask.any() else 0.0
    return ap / 101.0


def evaluate_vis(pred_tracks: dict[str, list[PredTrack]], gt_tracks: dict[str, list[GtTrack]]) -> dict[str, float]:
    """Score predicted tracks against ground truth over a set of videos:
    AP, AP50, AP75, AR@1 and AR@10, in that order."""
    for vid, tracks in pred_tracks.items():
        idents = [t.identity for t in tracks if t.identity >= 0]
        if len(idents) != len(set(idents)):
            raise ArgumentError(f"duplicate track identities in video {vid!r}")
    videos = sorted(gt_tracks)
    classes = sorted({t.class_id for vid in videos for t in gt_tracks[vid]})

    def keep_topk(tracks: list[PredTrack], k: int | None) -> set[int]:
        if k is None or len(tracks) <= k:
            return {id(t) for t in tracks}
        order = sorted(range(len(tracks)), key=lambda i: -tracks[i].score)
        return {id(tracks[i]) for i in order[:k]}

    iou_cache: dict[tuple[str, int, int], float] = {}

    def pair_iou(vid: str, pi: int, gi: int, p: PredTrack, g: GtTrack) -> float:
        key = (vid, pi, gi)
        if key not in iou_cache:
            iou_cache[key] = track_iou(p, g)
        return iou_cache[key]

    def run(k: int | None) -> tuple[float, dict[float, float], float]:
        """Returns (mean AP, AP per threshold, mean recall)."""
        ap_per_tau: dict[float, list[float]] = {tau: [] for tau in IOU_THRESHOLDS}
        recalls: list[float] = []
        kept = {vid: keep_topk(pred_tracks.get(vid, []), k) for vid in videos}
        for tau in IOU_THRESHOLDS:
            for c in classes:
                entries = []  # (score, vid, pred index in full list)
                for vid in videos:
                    for pi, p in enumerate(pred_tracks.get(vid, [])):
                        if p.class_id == c and id(p) in kept[vid]:
                            entries.append((p.score, vid, pi, p))
                entries.sort(key=lambda e: (-e[0], e[1], e[2]))
                npos = sum(1 for vid in videos for g in gt_tracks[vid] if g.class_id == c)
                matched: set[tuple[str, int]] = set()
                tp_flags = []
                for score, vid, pi, p in entries:
                    best_iou, best_gi = 0.0, -1
                    for gi, g in enumerate(gt_tracks[vid]):
                        if g.class_id != c or (vid, gi) in matched:
                            continue
                        iou = pair_iou(vid, pi, gi, p, g)
                        if iou >= tau and iou > best_iou:
                            best_iou, best_gi = iou, gi
                    if best_gi >= 0:
                        matched.add((vid, best_gi))
                        tp_flags.append(True)
                    else:
                        tp_flags.append(False)
                ap_per_tau[tau].append(_ap_101(tp_flags, npos))
                recalls.append(sum(tp_flags) / npos if npos else 0.0)
        tau_means = {tau: (float(np.mean(v)) if v else 0.0) for tau, v in ap_per_tau.items()}
        mean_ap = float(np.mean(list(tau_means.values()))) if classes else 0.0
        mean_recall = float(np.mean(recalls)) if recalls else 0.0
        return mean_ap, tau_means, mean_recall

    ap, tau_means, _ = run(None)
    _, _, ar1 = run(1)
    _, _, ar10 = run(10)
    return {"AP": ap, "AP50": tau_means[0.5], "AP75": tau_means[0.75], "AR@1": ar1, "AR@10": ar10}


# ---------------------------------------------------------------------------
# track assembly


def gt_tracks_from_clip(clip: SpriteClip) -> list[GtTrack]:
    tracks = [GtTrack(class_id=int(c), masks={}) for c in clip.gt_classes]
    for t in range(clip.num_frames):
        masks = clip.masks(t)
        for g in np.flatnonzero(clip.visibility[t]):
            tracks[g].masks[t] = masks[g].astype(bool)
    return tracks


def pred_tracks(preds: list[FramePrediction]) -> list[PredTrack]:
    """A stream's tracks, in identity order: its fired slots grouped by
    identity.  Class by majority vote (a tie to the lower class id), score =
    mean of the per-frame max class probabilities in frame order, masks
    upsampled from the prediction grid to image resolution."""
    records: dict[int, list[tuple[int, int, float, np.ndarray]]] = {}  # identity -> (frame, class, score, mask)
    for pred in preds:
        class_ids = np.argmax(pred.class_probs[:, :-1], axis=1)
        for i in np.flatnonzero(pred.fired).tolist():
            records.setdefault(int(pred.identities[i]), []).append(
                (pred.frame_index, int(class_ids[i]), float(pred.scores[i]), pred.binary_masks[i])
            )
    tracks = []
    for ident in sorted(records):
        frames, votes, scores, grids = zip(*records[ident])
        class_id = int(np.argmax(np.bincount(votes)))
        masks = {t: np.repeat(np.repeat(m, MASK_STRIDE, axis=0), MASK_STRIDE, axis=1) for t, m in zip(frames, grids)}
        tracks.append(PredTrack(class_id, float(np.mean(scores)), masks, ident, dict(zip(frames, scores))))
    return tracks


def identity_switches(preds: list[FramePrediction], gts: list[GtTrack]) -> list[tuple[int, int]]:
    """(followed, switched) for each transition into frame 1, 2, ...: the
    ground truths followed on both frames, and how many of them changed identity.

    On each frame, a visible ground truth shrunk to the prediction grid
    follows the fired slot that overlaps it most, if that IoU is at least
    `PROBE_MATCH_IOU`; on a tie the lowest fired slot wins.
    """
    followed = []  # per frame: gt index -> identity of the slot it follows
    for pred in preds:
        t = pred.frame_index
        visible = [g for g, track in enumerate(gts) if t in track.masks]
        slots = np.flatnonzero(pred.fired)
        match = {}
        if visible and slots.size:
            gt_small = shrink_mask(np.stack([gts[g].masks[t] for g in visible]), pred.binary_masks.shape[1:])
            iou = mask_iou(gt_small, pred.binary_masks[slots])
            best = np.argmax(iou, axis=1)  # first maximum: lowest fired slot wins a tie
            for g, row, b in zip(visible, iou, best):
                if row[b] >= PROBE_MATCH_IOU:
                    match[g] = int(pred.identities[slots[b]])
        followed.append(match)
    transitions = []
    for prev, cur in zip(followed, followed[1:]):
        both = [g for g in cur if g in prev]
        transitions.append((len(both), sum(cur[g] != prev[g] for g in both)))
    return transitions


def switch_rate(clips: list[list[tuple[int, int]]]) -> float:
    """Unweighted mean over clips of switched / followed, `identity_switches`
    summed over each clip's transitions; a clip that follows nothing counts 0."""
    rates = []
    for transitions in clips:
        followed = sum(f for f, _ in transitions)
        rates.append(sum(s for _, s in transitions) / followed if followed else 0.0)
    return float(np.mean(rates))


def evaluate_model_on_clips(model: RCFModel, clips: list[SpriteClip]) -> dict[str, float]:
    """Stream each clip once; score its tracks, keyed by clip id, which must
    not repeat, and count its identity switches.  Returns AP, AP50, AP75,
    AR@1, AR@10 and switch_rate, in that order."""
    vids = [clip.clip_id or f"video-{i}" for i, clip in enumerate(clips)]
    for i, vid in enumerate(vids):
        if vid in vids[:i]:
            raise FormatError(f"two clips share the video id {vid!r}")
    tracks, gts, switches = {}, {}, []
    for vid, clip in zip(vids, clips):
        preds, _ = stream_clip(model, clip)
        tracks[vid] = pred_tracks(preds)
        gts[vid] = gt_tracks_from_clip(clip)
        switches.append(identity_switches(preds, gts[vid]))
    return {**evaluate_vis(tracks, gts), "switch_rate": switch_rate(switches)}
