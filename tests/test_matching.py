"""Similarity matrix, Hungarian solver vs exhaustive oracle, Dice facts."""

import itertools
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest

from rcfvis.errors import ArgumentError, CapacityError, NumericError
from rcfvis.matching import (
    DICE_SMOOTH,
    dice_coeff,
    hungarian_assign,
    shrink_mask,
    similarity_matrix,
)
from rcfvis.tensor import sigmoid

BRUTE_FORCE_MAX_GT = 8


@lru_cache(maxsize=64)
def _injections(n: int, g: int) -> np.ndarray:
    count = 1
    for i in range(g):
        count *= n - i
    if count > 2_000_000:
        raise ArgumentError(f"injection count {count} exceeds the enumeration guard")
    return np.array(list(itertools.permutations(range(n), g)), dtype=np.int64)


def total(sim: np.ndarray, slots: tuple[int, ...]) -> float:
    """The similarity an assignment collects: ground truth i at slot slots[i]."""
    return float(np.asarray(sim)[range(len(slots)), list(slots)].sum())


def brute_force_assign(sim: np.ndarray) -> tuple[int, ...]:
    """Exhaustive oracle over injections; ties pick the lexicographically
    smallest sigma (guaranteed by enumeration order plus strict argmax)."""
    sim = np.asarray(sim, dtype=np.float64)
    g, n = sim.shape
    if g > BRUTE_FORCE_MAX_GT:
        raise ArgumentError(f"brute force guard: G={g} exceeds {BRUTE_FORCE_MAX_GT}")
    if g == 0:
        return ()
    if g > n:
        raise CapacityError(f"{g} ground truths exceed {n} slots")
    perms = _injections(n, g)
    totals = sim[np.arange(g)[None, :], perms].sum(axis=1)
    best = int(np.argmax(totals))  # first maximum = lexicographically smallest
    return tuple(int(j) for j in perms[best])


def numpy_scalar_hungarian(sim: np.ndarray) -> tuple[int, ...]:
    """Oracle: the solver as it ran on numpy arrays and scalars before its
    loops moved to Python lists."""
    sim = np.asarray(sim, dtype=np.float64)
    g, n = sim.shape
    cost = -sim
    inf = np.inf
    u = np.zeros(g + 1)
    v = np.zeros(n + 1)
    match = np.zeros(n + 1, dtype=np.int64)
    way = np.zeros(n + 1, dtype=np.int64)
    for i in range(1, g + 1):
        match[0] = i
        j0 = 0
        minv = np.full(n + 1, inf)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = match[j0]
            delta = inf
            j1 = -1
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = cost[i0 - 1, j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    gt_to_slot = [0] * g
    for j in range(1, n + 1):
        if match[j]:
            gt_to_slot[match[j] - 1] = j - 1
    return tuple(gt_to_slot)


class TestShrinkMask:
    @pytest.mark.parametrize("hw, out_hw", [((32, 48), (16, 24)), ((128, 192), (32, 48)), ((6, 9), (2, 3))])
    def test_stack_equals_per_mask_loop(self, rng, hw, out_hw):
        stack = (rng.random((7, *hw)) < rng.random((7, 1, 1))).astype(np.uint8)
        stack[0], stack[1] = 0, 1
        got = shrink_mask(stack, out_hw)
        want = np.stack([shrink_mask(m, out_hw) for m in stack])
        assert got.dtype == bool and got.shape == (7, *out_hw)
        assert np.array_equal(got, want)
        # a half-covered block is on: its mean is exactly 0.5
        half = np.zeros((1, 2, 2), dtype=np.uint8)
        half[0, 0] = 1
        assert shrink_mask(half, (1, 1)).tolist() == [[[True]]]

    def test_empty_stack(self):
        assert shrink_mask(np.zeros((0, 8, 12), dtype=np.uint8), (4, 6)).shape == (0, 4, 6)

    def test_indivisible_rejected(self):
        with pytest.raises(ArgumentError):
            shrink_mask(np.zeros((2, 5, 6), dtype=bool), (2, 3))


class TestDice:
    def test_self_dice_is_one(self, rng):
        a = (rng.random((6, 6)) < 0.4).astype(float)
        if a.sum() == 0:
            a[0, 0] = 1.0
        assert dice_coeff(a, a) == pytest.approx(1.0)

    def test_symmetric(self, rng):
        a = (rng.random(30) < 0.5).astype(float)
        b = (rng.random(30) < 0.5).astype(float)
        assert dice_coeff(a, b) == dice_coeff(b, a)

    def test_loss_in_unit_interval(self, rng):
        for _ in range(20):
            a = rng.random(25)
            b = rng.random(25)
            d = dice_coeff(a, b)
            assert 0.0 <= 1.0 - d <= 1.0

    def test_reduces_over_last_axis(self, rng):
        a = rng.random((3, 1, 10))
        b = rng.random((1, 4, 10))
        d = dice_coeff(a, b)
        assert d.shape == (3, 4)
        assert all(d[i, j] == dice_coeff(a[i, 0], b[0, j]) for i in range(3) for j in range(4))
        assert isinstance(dice_coeff(a[0, 0], b[0, 0]), float)


class TestSimilarityMatrix:
    def test_perfect_match_scores_two(self):
        gt = np.zeros((1, 2, 2))
        gt[0, 0, 0] = 1.0
        logits = np.full((1, 2, 2), -500.0)
        logits[0, 0, 0] = 500.0  # sigmoid saturates to exactly 0/1 in float64
        sim = similarity_matrix(np.array([[1.0, 0.0]]), logits, gt, np.array([0]))
        assert sim[0, 0] == pytest.approx(2.0, abs=1e-12)

    def test_empty_gt_set(self):
        sim = similarity_matrix(np.full((3, 3), 1 / 3), np.zeros((3, 2, 2)), np.zeros((0, 2, 2)), np.zeros(0, dtype=int))
        assert sim.shape == (0, 3)
        assert hungarian_assign(sim) == ()

    def test_matches_scalar_recomputation(self, rng):
        probs = rng.random((3, 4))
        probs /= probs.sum(axis=1, keepdims=True)
        logits = rng.standard_normal((3, 2, 3))
        gt_masks = (rng.random((2, 2, 3)) < 0.5).astype(float)
        gt_classes = np.array([2, 0])
        sim = similarity_matrix(probs, logits, gt_masks, gt_classes)
        for i in range(2):
            for j in range(3):
                soft = 1.0 / (1.0 + np.exp(-logits[j]))
                inter = float((gt_masks[i] * soft).sum())
                dice = (2 * inter + 1) / (gt_masks[i].sum() + soft.sum() + 1)
                want = dice + probs[j, gt_classes[i]]
                assert sim[i, j] == pytest.approx(want, abs=1e-12)

    def test_broadcast_matches_pairwise_loop_bit_for_bit(self, rng):
        for _ in range(20):
            n, g = 32, int(rng.integers(1, 9))
            probs = rng.random((n, 5))
            probs /= probs.sum(axis=1, keepdims=True)
            logits = rng.standard_normal((n, 8, 12)) * 3
            gt_masks = rng.random((g, 8, 12)) < 0.3
            gt_classes = rng.integers(0, 4, size=g)
            sim = similarity_matrix(probs, logits, gt_masks, gt_classes)
            soft = sigmoid(logits)
            for i in range(g):  # the scalar loop the broadcast replaced, whole-mask sums
                gt = gt_masks[i].astype(np.float64)
                for j in range(n):
                    dice = (2.0 * (gt * soft[j]).sum() + DICE_SMOOTH) / (gt.sum() + soft[j].sum() + DICE_SMOOTH)
                    assert sim[i, j].tobytes() == (dice + probs[j, gt_classes[i]]).tobytes()

    @pytest.mark.parametrize("g", [0, 1, 8])
    def test_equals_the_broadcast_formula_and_builds_no_pairwise_product(self, rng, g):
        n, h, w = 32, 32, 48
        probs = rng.random((n, 5))
        probs /= probs.sum(axis=1, keepdims=True)
        logits = rng.standard_normal((n, h, w)) * 3
        gt_masks = rng.random((g, h, w)) < 0.3
        gt_classes = rng.integers(0, 4, size=g)
        gt = gt_masks.astype(np.float64).reshape(g, 1, h * w)
        soft = sigmoid(logits).reshape(1, n, h * w)
        dice = (2.0 * (gt * soft).sum(axis=-1) + DICE_SMOOTH) / (gt.sum(axis=-1) + soft.sum(axis=-1) + DICE_SMOOTH)
        want = dice + probs[:, gt_classes].T
        similarity_matrix(probs, logits, gt_masks, gt_classes)  # warm up numpy's own caches
        tracemalloc.start()
        try:
            sim = similarity_matrix(probs, logits, gt_masks, gt_classes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sim.shape == want.shape == (g, n) and sim.tobytes() == want.tobytes()
        # sigmoid's temporaries and one ground truth's products: 1.28 MB here,
        # against 3.7 MB with the (8, 32, 1536) product at 3.1 MB of it
        assert peak < 4 * n * h * w * 8

    def test_over_capacity(self):
        with pytest.raises(CapacityError):
            similarity_matrix(np.full((2, 3), 1 / 3), np.zeros((2, 2, 2)), np.zeros((3, 2, 2)), np.zeros(3, dtype=int))


class TestAssignment:
    def test_worked_2x2_example(self):
        # exhaustive over both permutations: 1+0=1 vs 2+3=5
        sim = np.array([[1.0, 2.0], [3.0, 0.0]])
        a = hungarian_assign(sim)
        assert a == (1, 0)
        assert total(sim, a) == pytest.approx(5.0)

    def test_diagonal_dominant_identity(self):
        sim = np.eye(4) * 10.0 + 0.1
        assert hungarian_assign(sim) == (0, 1, 2, 3)

    def test_brute_force_single(self):
        assert brute_force_assign(np.array([[3.0]])) == (0,)

    def test_brute_force_tie_lexicographic(self):
        assert brute_force_assign(np.ones((2, 2))) == (0, 1)

    def test_brute_force_guard(self):
        with pytest.raises(ArgumentError):
            brute_force_assign(np.ones((9, 9)))

    def test_nonfinite_rejected(self):
        with pytest.raises(NumericError):
            hungarian_assign(np.array([[np.nan, 1.0]]))

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            hungarian_assign(np.ones((3, 2)))

    def test_agrees_with_oracle_500_random(self, rng):
        for _ in range(500):
            g = int(rng.integers(1, 8))
            n = int(rng.integers(g, 9))
            sim = rng.normal(0.0, 3.0, size=(g, n))
            h = hungarian_assign(sim)
            b = brute_force_assign(sim)
            assert total(sim, h) == pytest.approx(total(sim, b), abs=1e-9)
            # sigma itself may differ only among equal-total optima
            assert len(set(h)) == g

    def test_python_float_loops_equal_numpy_scalar_oracle(self, rng):
        for k in range(200):
            g = int(rng.integers(1, 9))
            sim = rng.random((g, 32)) + rng.random((1, 32))
            if k % 2:  # repeated columns: exact ties between slots
                sim[:, rng.integers(0, 32, size=16)] = sim[:, rng.integers(0, 32, size=16)]
            assert hungarian_assign(sim) == numpy_scalar_hungarian(sim)

    def test_constant_shift_invariance(self, rng):
        sim = rng.normal(size=(4, 6))
        base = hungarian_assign(sim)
        shifted = hungarian_assign(sim + 7.25)
        assert shifted == base
