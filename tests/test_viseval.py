"""Track-level AP/AR metric against hand-enumerated cases."""

import numpy as np
import pytest

from rcfvis.errors import ArgumentError
from rcfvis.instance_head import FramePrediction
from rcfvis.viseval import (
    PROBE_MATCH_IOU,
    GtTrack,
    PredTrack,
    evaluate_vis,
    identity_switches,
    pred_tracks,
    switch_rate,
    track_iou,
)


def box(y0, y1, x0, x1, h=8, w=8):
    m = np.zeros((h, w), dtype=bool)
    m[y0:y1, x0:x1] = True
    return m


def test_track_iou_accumulates_over_frames():
    a = PredTrack(0, 1.0, {0: box(0, 4, 0, 4), 1: box(0, 4, 0, 4)})
    b = GtTrack(0, {0: box(0, 4, 0, 4), 2: box(0, 4, 0, 4)})
    # frame0: inter 16 union 16; frame1: union 16; frame2: union 16
    assert track_iou(a, b) == pytest.approx(16 / 48)


def test_missing_frames_count_as_empty():
    a = PredTrack(0, 1.0, {0: box(0, 2, 0, 2)})
    b = GtTrack(0, {})
    assert track_iou(a, b) == 0.0


def test_perfect_predictions_score_one():
    gt = {
        "v0": [GtTrack(0, {t: box(0, 3, 0, 3) for t in range(4)}), GtTrack(1, {t: box(4, 8, 4, 8) for t in range(4)})],
        "v1": [GtTrack(2, {t: box(2, 5, 2, 5) for t in range(3)})],
    }
    preds = {
        vid: [PredTrack(g.class_id, 1.0, dict(g.masks), identity=i) for i, g in enumerate(tracks)]
        for vid, tracks in gt.items()
    }
    score = evaluate_vis(preds, gt)
    assert score["AP"] == score["AP50"] == score["AP75"] == 1.0
    assert score["AR@10"] == 1.0
    # v0 holds two instances, so keeping one prediction caps its recall
    assert score["AR@1"] == pytest.approx(2 / 3)


def test_no_predictions_all_zero():
    gt = {"v0": [GtTrack(0, {0: box(0, 3, 0, 3)})]}
    score = evaluate_vis({"v0": []}, gt)
    assert score["AP"] == score["AP50"] == score["AP75"] == score["AR@1"] == score["AR@10"] == 0.0


def test_hand_enumerated_two_prediction_case():
    # 1 gt; pred A matches (IoU 1.0) with score 0.8; pred B misses with score 0.9.
    # Ranked by score: B first (FP, r=0 p=0) then A (TP, r=1 p=0.5).
    # 101-point interpolation: max precision at recall >= r is 0.5 for every r.
    gt_mask = box(0, 3, 0, 3)
    gt = {"v0": [GtTrack(0, {0: gt_mask})]}
    preds = {
        "v0": [
            PredTrack(0, 0.8, {0: gt_mask.copy()}, identity=1),
            PredTrack(0, 0.9, {0: box(0, 3, 5, 8)}, identity=2),
        ]
    }
    score = evaluate_vis(preds, gt)
    assert score["AP50"] == pytest.approx(0.5)
    assert score["AP"] == pytest.approx(0.5)
    assert score["AR@10"] == pytest.approx(1.0)
    assert score["AR@1"] == pytest.approx(0.0)  # top-1 kept prediction is the miss


def test_ap_bounded_by_ap50():
    gt = {"v0": [GtTrack(0, {0: box(0, 4, 0, 4)})]}
    # overlap 12/20 = 0.6: matches only at low thresholds
    preds = {"v0": [PredTrack(0, 0.9, {0: box(1, 4, 0, 4)}, identity=0)]}
    score = evaluate_vis(preds, gt)
    assert score["AP"] <= score["AP50"]
    assert 0.0 < score["AP50"] <= 1.0


def test_wrong_class_never_matches():
    gt = {"v0": [GtTrack(0, {0: box(0, 4, 0, 4)})]}
    preds = {"v0": [PredTrack(1, 0.9, {0: box(0, 4, 0, 4)}, identity=0)]}
    score = evaluate_vis(preds, gt)
    assert score["AP"] == 0.0


def test_duplicate_identities_rejected():
    gt = {"v0": [GtTrack(0, {0: box(0, 4, 0, 4)})]}
    preds = {"v0": [PredTrack(0, 0.9, {0: box(0, 4, 0, 4)}, identity=3),
                    PredTrack(0, 0.8, {0: box(0, 4, 0, 4)}, identity=3)]}
    with pytest.raises(ArgumentError):
        evaluate_vis(preds, gt)


def test_scores_dataclass_fields():
    gt = {"v0": [GtTrack(0, {0: box(0, 4, 0, 4)})]}
    score = evaluate_vis({"v0": [PredTrack(0, 0.9, {0: box(0, 4, 0, 4)}, identity=0)]}, gt)
    assert list(score) == ["AP", "AP50", "AP75", "AR@1", "AR@10"]


def streamed(t, slots):
    """Frame t's postprocessed prediction over 3 classes and a 3x4 grid;
    slots: (identity, class, score, mask) each, identity -1 for unfired."""
    probs = np.zeros((len(slots), 4))
    for i, (_, c, score, _) in enumerate(slots):
        probs[i, c], probs[i, 3] = score, 1.0 - score
    return FramePrediction(
        class_probs=probs,
        mask_logits=np.zeros((len(slots), 3, 4)),
        frame_index=t,
        binary_masks=np.array([m for _, _, _, m in slots]),
        fired=np.array([ident >= 0 for ident, _, _, _ in slots]),
        scores=probs[:, :3].max(axis=1),
        identities=np.array([ident for ident, _, _, _ in slots]),
    )


def test_pred_tracks_group_fired_slots_by_identity():
    a, b, c = box(0, 2, 0, 2, 3, 4), box(1, 3, 1, 4, 3, 4), box(0, 3, 3, 4, 3, 4)
    scores = [0.1, 0.7, 0.2]
    preds = [
        # identity 7 votes class 2, then 1, then 2 and 1 again: a tie, won by class 1
        streamed(0, [(7, 2, scores[0], a), (3, 0, 0.9, b), (-1, 2, 0.99, c)]),
        streamed(1, [(-1, 0, 0.95, b), (7, 1, scores[1], c)]),
        streamed(2, [(3, 0, 0.6, a), (-1, 1, 0.97, a), (7, 2, scores[2], b)]),
        streamed(3, [(7, 1, 0.4, a)]),
    ]
    scores.append(0.4)
    assert np.mean(scores[::-1]) != np.mean(scores)  # the mean must sum in frame order
    tracks = pred_tracks(preds)
    assert [t.identity for t in tracks] == [3, 7]  # identity order, not order of first appearance
    three, seven = tracks
    assert seven.class_id == 1 and three.class_id == 0
    assert seven.frame_scores == dict(zip(range(4), scores)) and three.frame_scores == {0: 0.9, 2: 0.6}
    assert seven.score == np.mean(scores) and three.score == np.mean([0.9, 0.6])
    # masks: every fired frame, no unfired slot's, each upsampled 2x
    up = {k: np.kron(m, np.ones((2, 2), dtype=bool)) for k, m in (("a", a), ("b", b), ("c", c))}
    assert list(seven.masks) == [0, 1, 2, 3] and list(three.masks) == [0, 2]
    for track, want in ((seven, "acba"), (three, "ba")):
        for t, key in zip(track.masks, want):
            assert track.masks[t].dtype == bool and np.array_equal(track.masks[t], up[key])


def cells(*flat, h=4, w=5):
    """An h x w prediction-grid mask with the given flat cells set."""
    m = np.zeros(h * w, dtype=bool)
    m[list(flat)] = True
    return m.reshape(h, w)


def fired_frame(t, masks, identities):
    """Frame t's prediction: one slot per mask, fired unless its identity is -1."""
    ids = np.array(identities)
    return FramePrediction(
        class_probs=np.zeros((len(ids), 2)),
        mask_logits=np.zeros((len(ids), 4, 5)),
        frame_index=t,
        binary_masks=np.array(masks),
        fired=ids >= 0,
        identities=ids,
    )


def gt(*frames):
    """A ground truth visible on each frame given as (t, grid mask), at 2x image resolution."""
    return GtTrack(0, {t: np.kron(m, np.ones((2, 2), dtype=bool)) for t, m in frames})


def test_identity_switches_follow_the_probe_rule():
    three = cells(0, 1, 2)
    ten, eleven = cells(*range(10)), cells(*range(11))
    assert PROBE_MATCH_IOU == 0.3
    # IoU 3/10 is exactly the threshold and follows; 3/11 does not
    at_threshold = [fired_frame(t, [ten], [5 + t]) for t in range(2)]
    below = [fired_frame(t, [eleven], [5 + t]) for t in range(2)]
    truth = [gt((0, three), (1, three))]
    assert identity_switches(at_threshold, truth) == [(1, 1)]
    assert identity_switches(below, truth) == [(0, 0)]

    # a tie goes to the lowest fired slot: identity 4 on both frames, not 7 then 9;
    # the unfired slot 0 overlaps as much and is never followed
    tie = [fired_frame(t, [three, three, three], [-1, 4, ident]) for t, ident in ((0, 7), (1, 9))]
    assert identity_switches(tie, truth) == [(1, 0)]

    # two slots that trade identities every frame: one switch per followed
    # ground truth per transition
    left, right = cells(0, 1, 5, 6), cells(13, 14, 18, 19)
    trading = [fired_frame(t, [left, right], [t % 2, 1 - t % 2]) for t in range(4)]
    pair = [gt(*((t, left) for t in range(4))), gt(*((t, right) for t in range(4)))]
    assert identity_switches(trading, pair) == [(2, 2)] * 3
    # a ground truth invisible on a frame is not followed across its transitions
    gap = [gt(*((t, left) for t in (0, 1, 3))), pair[1]]
    assert identity_switches(trading, gap) == [(2, 2), (1, 1), (1, 1)]

    # a one-frame clip has no transition, and a clip that follows nothing
    # counts as rate 0 in the unweighted mean over clips
    one_frame = identity_switches(trading[:1], pair)
    unfired = [fired_frame(t, [left, right], [-1, -1]) for t in range(4)]
    nothing = identity_switches(unfired, pair)
    assert one_frame == [] and nothing == [(0, 0)] * 3
    clips = [identity_switches(trading, pair), one_frame, nothing, identity_switches(tie, truth)]
    assert switch_rate(clips) == np.mean([1.0, 0.0, 0.0, 0.0]) == 0.25
    assert switch_rate([[(2, 1), (2, 0)], [(1, 1)]]) == np.mean([1 / 4, 1.0])
