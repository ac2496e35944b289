"""Set supervision support: similarity matrix, optimal assignment, oracle.

Each ground truth is assigned the prediction slot maximizing
Dice-coefficient(gt mask, sigmoid(mask logits)) + predicted probability of
the gt class.  The production solver is an O(n^3) augmenting-path algorithm
with potentials; an exhaustive enumerator over injections serves as its
oracle for small instances.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ArgumentError, CapacityError, NumericError
from .instance_head import FramePrediction
from .tensor import sigmoid

DICE_SMOOTH = 1.0
BRUTE_FORCE_MAX_GT = 8


def dice_coeff(a: np.ndarray, b: np.ndarray) -> float:
    """Smoothed Dice coefficient (2*sum(ab)+1) / (sum(a)+sum(b)+1)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return float((2.0 * (a * b).sum() + DICE_SMOOTH) / (a.sum() + b.sum() + DICE_SMOOTH))


def shrink_mask(mask: np.ndarray, out_hw: tuple[int, int]) -> np.ndarray:
    """Downsample a binary mask by block-mean >= 0.5 (gt -> prediction grid)."""
    h, w = mask.shape
    oh, ow = out_hw
    if h % oh or w % ow:
        raise ArgumentError(f"mask {h}x{w} not divisible into {oh}x{ow}")
    blocks = mask.reshape(oh, h // oh, ow, w // ow).astype(np.float64)
    return blocks.mean(axis=(1, 3)) >= 0.5


@dataclass(frozen=True)
class Assignment:
    gt_to_slot: tuple[int, ...]  # sigma: ground-truth index -> slot index, injective
    total: float

    def __len__(self) -> int:
        return len(self.gt_to_slot)


def similarity_matrix(
    pred: FramePrediction,
    gt_masks: np.ndarray,
    gt_classes: np.ndarray,
) -> np.ndarray:
    """(G, N) similarity; entry (i, j) scores slot j for ground truth i by
    Dice coefficient plus class probability."""
    g = gt_masks.shape[0]
    n = pred.num_slots
    if g > n:
        raise CapacityError(f"{g} ground-truth instances exceed {n} prediction slots")
    sim = np.zeros((g, n))
    if g == 0:
        return sim
    probs = pred.class_probs
    soft = sigmoid(pred.mask_logits)
    for i in range(g):
        gt = np.asarray(gt_masks[i], dtype=np.float64)
        for j in range(n):
            sim[i, j] = dice_coeff(gt, soft[j]) + probs[j, int(gt_classes[i])]
    return sim


@lru_cache(maxsize=64)
def _injections(n: int, g: int) -> np.ndarray:
    count = 1
    for i in range(g):
        count *= n - i
    if count > 2_000_000:
        raise ArgumentError(f"injection count {count} exceeds the enumeration guard")
    return np.array(list(itertools.permutations(range(n), g)), dtype=np.int64)


def brute_force_assign(sim: np.ndarray) -> Assignment:
    """Exhaustive oracle over injections; ties pick the lexicographically
    smallest sigma (guaranteed by enumeration order plus strict argmax)."""
    sim = np.asarray(sim, dtype=np.float64)
    g, n = sim.shape
    if g > BRUTE_FORCE_MAX_GT:
        raise ArgumentError(f"brute force guard: G={g} exceeds {BRUTE_FORCE_MAX_GT}")
    if g == 0:
        return Assignment(gt_to_slot=(), total=0.0)
    if g > n:
        raise CapacityError(f"{g} ground truths exceed {n} slots")
    perms = _injections(n, g)
    totals = sim[np.arange(g)[None, :], perms].sum(axis=1)
    best = int(np.argmax(totals))  # first maximum = lexicographically smallest
    return Assignment(gt_to_slot=tuple(int(j) for j in perms[best]), total=float(totals[best]))


def hungarian_assign(sim: np.ndarray) -> Assignment:
    """Maximum-total-similarity assignment of G ground truths to N slots.

    Augmenting-path algorithm with row/column potentials on the negated
    matrix, O(G^2 N).
    """
    sim = np.asarray(sim, dtype=np.float64)
    if not np.isfinite(sim).all():
        raise NumericError("similarity matrix contains non-finite entries")
    g, n = sim.shape
    if g > n:
        raise CapacityError(f"{g} ground truths exceed {n} slots")
    if g == 0:
        return Assignment(gt_to_slot=(), total=0.0)
    cost = -sim
    inf = np.inf
    u = np.zeros(g + 1)
    v = np.zeros(n + 1)
    match = np.zeros(n + 1, dtype=np.int64)  # column j -> row (1-based), 0 = free
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
    total = float(sim[np.arange(g), gt_to_slot].sum())
    return Assignment(gt_to_slot=tuple(gt_to_slot), total=total)
