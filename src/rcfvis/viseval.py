"""Video instance segmentation scoring: track-level AP over IoU thresholds.

Track IoU accumulates intersections and unions over frames (missing frames
count as empty masks).  For each class and IoU threshold in 0.50:0.05:0.95,
predictions are greedily matched in descending score to unmatched same-class
ground-truth tracks; AP is the 101-point interpolated area under the
precision-recall curve, averaged over thresholds and classes; AR@k keeps
only the top-k scored predictions per video.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError
from .model import RCFModel
from .stream import TrackState, stream_clip
from .synthav import SpriteClip

IOU_THRESHOLDS = tuple(round(0.5 + 0.05 * k, 2) for k in range(10))
MASK_UPSAMPLE = 2  # image pixels per prediction-grid pixel along each axis


@dataclass
class PredTrack:
    class_id: int
    score: float
    masks: dict[int, np.ndarray]  # frame -> bool mask
    identity: int = -1


@dataclass
class GtTrack:
    class_id: int
    masks: dict[int, np.ndarray]


@dataclass
class VisScore:
    ap: float
    ap50: float
    ap75: float
    ar1: float
    ar10: float

    def as_dict(self) -> dict[str, float]:
        return {"AP": self.ap, "AP50": self.ap50, "AP75": self.ap75, "AR@1": self.ar1, "AR@10": self.ar10}


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


def evaluate_vis(pred_tracks: dict[str, list[PredTrack]], gt_tracks: dict[str, list[GtTrack]]) -> VisScore:
    """Score predicted tracks against ground truth over a set of videos."""
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
    return VisScore(ap=ap, ap50=tau_means[0.5], ap75=tau_means[0.75], ar1=ar1, ar10=ar10)


# ---------------------------------------------------------------------------
# track assembly


def gt_tracks_from_clip(clip: SpriteClip) -> list[GtTrack]:
    tracks = []
    for g in range(clip.num_instances):
        masks = {
            t: clip.gt_masks[t, g].astype(bool)
            for t in range(clip.num_frames)
            if clip.visibility[t, g]
        }
        tracks.append(GtTrack(class_id=int(clip.gt_classes[g]), masks=masks))
    return tracks


def pred_tracks_from_state(state: TrackState) -> list[PredTrack]:
    """Tracks from the tracker history; class by majority vote, score = mean
    of per-frame max class probability, masks upsampled from the prediction
    grid to image resolution."""
    tracks = []
    for ident in sorted(state.history):
        records = state.history[ident]
        votes = np.bincount([r.class_id for r in records])
        class_id = int(np.argmax(votes))
        score = float(np.mean([r.score for r in records]))
        masks = {r.frame: np.repeat(np.repeat(r.mask, MASK_UPSAMPLE, axis=0), MASK_UPSAMPLE, axis=1) for r in records}
        tracks.append(PredTrack(class_id=class_id, score=score, masks=masks, identity=ident))
    return tracks


def evaluate_model_on_clips(model: RCFModel, clips: list[SpriteClip]) -> VisScore:
    preds: dict[str, list[PredTrack]] = {}
    gts: dict[str, list[GtTrack]] = {}
    for i, clip in enumerate(clips):
        vid = clip.clip_id or f"video-{i}"
        _, state = stream_clip(model, clip)
        preds[vid] = pred_tracks_from_state(state)
        gts[vid] = gt_tracks_from_clip(clip)
    return evaluate_vis(preds, gts)
