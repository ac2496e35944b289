"""Streaming runtime: caching contract, postprocess thresholds, tracker rules."""

import numpy as np
import pytest

from rcfvis.config import RunConfig
from rcfvis.errors import StateError
from rcfvis.instance_head import FramePrediction
from rcfvis.model import RCFModel
from rcfvis.stream import RefCache, TrackState, infer_frame, mask_iou, postprocess, stream_clip, track_update
from rcfvis.synthav import GeneratorConfig, generate_clip
from rcfvis.tensor import no_grad
from rcfvis.training import sample_window
from rcfvis.videonet import Backbone


def small_model(**kw):
    cfg = dict(image_h=32, image_w=48, audio_enabled=True, num_slots=6)
    cfg.update(kw)
    return RCFModel(RunConfig(**cfg).validate())


def small_clip(seed=0, frames=5, noise=0.0, speed=(1.0, 2.0)):
    return generate_clip(
        seed,
        GeneratorConfig(
            height=32, width=48, frames=frames, min_sprites=1, max_sprites=2,
            noise=noise, min_speed=speed[0], max_speed=speed[1],
        ),
    )


class TestPostprocess:
    def make(self, probs, logits):
        return FramePrediction(class_probs=np.asarray(probs, float), mask_logits=np.asarray(logits, float))

    def test_no_probability_above_bar_fires_nothing(self):
        pred = self.make([[0.4, 0.3, 0.3], [0.2, 0.2, 0.6]], np.zeros((2, 2, 2)))
        out = postprocess(pred, num_classes=2)
        assert not out.fired.any()

    def test_zero_logit_pixel_included(self):
        pred = self.make([[0.5, 0.2, 0.3]], np.zeros((1, 2, 2)))
        out = postprocess(pred, num_classes=2)
        assert out.binary_masks.all()  # sigmoid(0) = 0.5 >= 0.5

    def test_threshold_is_strict(self):
        pred = self.make([[0.39, 0.11, 0.5], [0.41, 0.09, 0.5]], np.zeros((2, 2, 2)))
        out = postprocess(pred, num_classes=2)
        assert out.fired.tolist() == [False, True]
        assert out.scores[1] == pytest.approx(0.41)


def manual_pred(num_slots, fired_masks, frame=0, num_classes=2):
    """Build a postprocessed prediction with given slot->mask dict."""
    h, w = 8, 8
    probs = np.zeros((num_slots, num_classes + 1))
    probs[:, num_classes] = 1.0
    logits = np.full((num_slots, h, w), -500.0)
    for slot, mask in fired_masks.items():
        probs[slot] = 0.0
        probs[slot, 0] = 0.9
        probs[slot, num_classes] = 0.1
        logits[slot] = np.where(mask, 500.0, -500.0)
    pred = FramePrediction(class_probs=probs, mask_logits=logits, frame_index=frame)
    return postprocess(pred, num_classes=num_classes)


def box(y0, y1, x0, x1, h=8, w=8):
    m = np.zeros((h, w), dtype=bool)
    m[y0:y1, x0:x1] = True
    return m


class TestTracker:
    def test_same_slot_keeps_identity(self):
        state = TrackState(num_slots=4)
        ids0 = track_update(state, manual_pred(4, {1: box(0, 3, 0, 3)}, 0))
        ids1 = track_update(state, manual_pred(4, {1: box(0, 3, 1, 4)}, 1))
        assert ids0[1] == ids1[1] >= 0

    def test_override_moves_identity_across_slots(self):
        state = TrackState(num_slots=6)
        m = box(2, 6, 2, 6)
        ids0 = track_update(state, manual_pred(6, {2: m}, 0))
        ids1 = track_update(state, manual_pred(6, {5: m}, 1))  # same mask, new slot
        assert ids1[5] == ids0[2]
        assert state.slot_ids[2] is None  # identity moved, not duplicated

    def test_multi_claim_resolved_by_largest_iou(self):
        state = TrackState(num_slots=6)
        prev = box(0, 4, 0, 8)  # 32 px
        track_update(state, manual_pred(6, {0: prev}, 0))
        prev_id = state.slot_ids[0]
        # slot1 IoU 0.6: 24 shared / 40 union ; slot2 IoU ~0.55
        m1 = box(0, 3, 0, 8)
        m2 = box(0, 4, 0, 8).copy()
        m2[3, :6] = False  # 26 px, inter 26, union 32 -> 0.8125? adjust to be below m1
        m1 = box(0, 4, 0, 8).copy()
        m1[0, :2] = False  # 30 px, inter 30, union 32 -> 0.9375
        ids = track_update(state, manual_pred(6, {1: m1, 2: m2}, 1))
        iou1, iou2 = mask_iou(np.stack([m1, m2]), prev[None])[:, 0]
        assert iou1 > 0.5 and iou2 > 0.5 and iou1 > iou2
        assert ids[1] == prev_id  # larger IoU wins
        assert ids[2] != prev_id and ids[2] >= 0  # other slot gets a fresh identity

    def test_override_beats_order_rule(self):
        state = TrackState(num_slots=4)
        a = box(0, 4, 0, 4)
        b = box(4, 8, 4, 8)
        ids0 = track_update(state, manual_pred(4, {0: a, 1: b}, 0))
        # next frame slot 1 lands on slot 0's old region: override must win
        ids1 = track_update(state, manual_pred(4, {1: a}, 1))
        assert ids1[1] == ids0[0]

    def test_gap_tolerance_then_clear(self):
        state = TrackState(num_slots=3)
        ids0 = track_update(state, manual_pred(3, {0: box(0, 4, 0, 4)}, 0))
        for t in range(1, 6):  # five unfired frames: identity retained
            track_update(state, manual_pred(3, {}, t), max_gap=5)
            assert state.slot_ids[0] == ids0[0]
        track_update(state, manual_pred(3, {}, 6), max_gap=5)  # sixth: cleared
        assert state.slot_ids[0] is None
        ids7 = track_update(state, manual_pred(3, {0: box(0, 4, 0, 4)}, 7), max_gap=5)
        assert ids7[0] != ids0[0]  # identity counter never reused

    def test_pure_function_of_state_and_prediction(self):
        def run():
            state = TrackState(num_slots=4)
            out = []
            out.append(track_update(state, manual_pred(4, {0: box(0, 4, 0, 4)}, 0)).copy())
            out.append(track_update(state, manual_pred(4, {1: box(0, 4, 0, 4)}, 1)).copy())
            return out

        a, b = run(), run()
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_live_identities_unique_random_storm(self, rng):
        state = TrackState(num_slots=5)
        for t in range(40):
            fired = {}
            for slot in range(5):
                if rng.random() < 0.5:
                    y = int(rng.integers(0, 5))
                    x = int(rng.integers(0, 5))
                    fired[slot] = box(y, y + 3, x, x + 3)
            track_update(state, manual_pred(5, fired, t), max_gap=2)
            live = state.live_identities()
            assert len(live) == len(set(live))


class TestInferFrame:
    def test_backbone_called_once_per_frame(self, monkeypatch):
        calls = []
        backbone_call = Backbone.__call__

        def counting_call(self, *args, **kwargs):
            calls.append(1)
            return backbone_call(self, *args, **kwargs)

        monkeypatch.setattr(Backbone, "__call__", counting_call)
        model = small_model()
        clip = small_clip(frames=4)
        stream_clip(model, clip)
        assert len(calls) == clip.num_frames

    def test_frame_zero_completes_with_empty_cache(self):
        model = small_model()
        clip = small_clip(frames=2)
        cache = RefCache(capacity=model.cfg.ref_frames)
        state = TrackState(num_slots=model.cfg.num_slots)
        pred = infer_frame(model, clip.frames[0].astype(np.float64), clip.audio_window(0), cache, state, 0)
        assert pred.class_probs.shape == (6, 5)
        assert cache.frames_processed == 1

    def test_identical_consecutive_frames_identical_predictions(self):
        model = small_model(audio_enabled=False)
        frame = small_clip(frames=2).frames[0].astype(np.float64)
        cache = RefCache(capacity=model.cfg.ref_frames)
        state = TrackState(num_slots=model.cfg.num_slots)
        p0 = infer_frame(model, frame, None, cache, state, 0)
        p1 = infer_frame(model, frame, None, cache, state, 1)
        assert np.abs(p0.class_probs - p1.class_probs).max() < 1e-9
        assert np.abs(p0.mask_logits - p1.mask_logits).max() < 1e-9

    def test_stream_position_mismatch(self):
        model = small_model(audio_enabled=False)
        frame = small_clip(frames=2).frames[0].astype(np.float64)
        cache = RefCache(capacity=1)
        state = TrackState(num_slots=6)
        with pytest.raises(StateError):
            infer_frame(model, frame, None, cache, state, 3)

    def test_uninitialized_model_rejected(self):
        with pytest.raises(StateError):
            infer_frame(object(), np.zeros((3, 32, 48)), None, RefCache(1), TrackState(num_slots=2), 0)


def scalar_iou(a, b):
    union = np.logical_or(a, b).sum()
    return float(np.logical_and(a, b).sum()) / float(union) if union else 0.0


def pairwise_track_update(state, pred, max_gap=5, iou_override=True):
    """Reference tracker: the IoU override pass as one scalar IoU per slot pair."""
    n = state.num_slots
    prev_ids = list(state.slot_ids)
    prev_masks = list(state.last_masks)
    fired = pred.fired
    assigned, claimed = {}, set()
    if iou_override:
        candidates = []
        for i in range(n):
            if not fired[i]:
                continue
            for j in range(n):
                if j == i or prev_ids[j] is None or prev_masks[j] is None:
                    continue
                iou = scalar_iou(pred.binary_masks[i], prev_masks[j])
                if iou > 0.5:
                    candidates.append((iou, j, i))
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
            identities[i] = assigned[i]
            state.slot_ids[i] = assigned[i]
            state.last_masks[i] = pred.binary_masks[i].copy()
            state.gaps[i] = 0
            class_id = int(np.argmax(pred.class_probs[i, :-1]))
            state.history.setdefault(assigned[i], []).append(
                (pred.frame_index, i, class_id, float(pred.scores[i]), pred.binary_masks[i].copy())
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
    return identities


def test_mask_iou_matches_scalar_definition(rng):
    a = rng.random((5, 6, 7)) < 0.4
    b = rng.random((4, 6, 7)) < 0.6
    a[0] = False
    b[1] = False  # a[0] x b[1] has an empty union
    b[2] = a[3]  # exact IoU 1
    iou = mask_iou(a, b)
    assert iou.shape == (5, 4)
    assert iou[0, 1] == 0.0 and iou[3, 2] == 1.0
    for i in range(5):
        for j in range(4):
            assert iou[i, j] == scalar_iou(a[i], b[j])


@pytest.mark.parametrize("seed", range(6))
def test_tracker_matches_pairwise_reference(seed):
    rng = np.random.default_rng(seed)
    n = 8
    # few distinct shapes, so slots often repeat a mask (exact IoU ties) and
    # the empty mask gives unions of 0
    palette = [np.zeros((8, 8), dtype=bool), box(0, 4, 0, 4), box(0, 4, 0, 5), box(1, 5, 0, 4), box(4, 8, 4, 8)]
    fast, slow = TrackState(num_slots=n), TrackState(num_slots=n)
    for t in range(30):
        fired = {s: palette[int(rng.integers(len(palette)))] for s in range(n) if rng.random() < 0.6}
        override = bool(rng.random() < 0.9)
        got = track_update(fast, manual_pred(n, fired, t), max_gap=2, iou_override=override)
        want = pairwise_track_update(slow, manual_pred(n, fired, t), max_gap=2, iou_override=override)
        assert np.array_equal(got, want)
        assert fast.slot_ids == slow.slot_ids and fast.next_id == slow.next_id
    assert fast.history.keys() == slow.history.keys()
    for ident, records in fast.history.items():
        want = slow.history[ident]
        assert [(r.frame, r.slot, r.class_id, r.score) for r in records] == [w[:4] for w in want]
        assert all(np.array_equal(r.mask, w[4]) for r, w in zip(records, want))


@pytest.mark.parametrize("delta", [1, 2, 3])
def test_training_window_matches_streamed_references(delta):
    # training pads the clip start with sample_window, streaming with RefCache:
    # both must hand the model the same references and audio at every t
    model = small_model(ref_frames=delta)
    clip = small_clip(seed=delta, frames=6)
    # a distinct gain per frame, so that audio windows in the wrong order show
    clip.waveform = clip.waveform * np.repeat(np.arange(1.0, 7.0), clip.samples_per_frame).astype(np.float32)
    preds, _ = stream_clip(model, clip)
    for t, pred in enumerate(preds):
        refs, windows = sample_window(clip, t, delta)
        with no_grad():
            out = model.forward_frames(clip.frames[t].astype(np.float64), refs, windows, frame_index=t)
        assert np.array_equal(out.class_probs.data, pred.class_probs), t
        assert np.array_equal(out.mask_logits.data, pred.mask_logits), t
