"""Set supervision support: similarity matrix and optimal assignment.

Each ground truth is assigned the prediction slot maximizing
Dice-coefficient(gt mask, sigmoid(mask logits)) + predicted probability of
the gt class.  The solver is an O(n^3) augmenting-path algorithm with
potentials.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, CapacityError, NumericError
from .tensor import sigmoid

DICE_SMOOTH = 1.0


def dice_coeff(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """Smoothed Dice coefficient (2*sum(ab)+1) / (sum(a)+sum(b)+1) over the
    last axis; leading axes broadcast, and 1-D inputs give a float."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    out = (2.0 * (a * b).sum(axis=-1) + DICE_SMOOTH) / (a.sum(axis=-1) + b.sum(axis=-1) + DICE_SMOOTH)
    return float(out) if out.ndim == 0 else out


def shrink_mask(mask: np.ndarray, out_hw: tuple[int, int]) -> np.ndarray:
    """Downsample binary masks (..., H, W) by block-mean >= 0.5 (gt ->
    prediction grid).  Block sums of 0/1 values are exact in any order, so a
    stack shrinks to the same bits as its masks one at a time."""
    *lead, h, w = mask.shape
    oh, ow = out_hw
    if h % oh or w % ow:
        raise ArgumentError(f"mask {h}x{w} not divisible into {oh}x{ow}")
    blocks = mask.reshape(*lead, oh, h // oh, ow, w // ow).astype(np.float64)
    return blocks.mean(axis=(-3, -1)) >= 0.5


@dataclass(frozen=True)
class Assignment:
    gt_to_slot: tuple[int, ...]  # sigma: ground-truth index -> slot index, injective
    total: float

    def __len__(self) -> int:
        return len(self.gt_to_slot)


def similarity_matrix(
    class_probs: np.ndarray,
    mask_logits: np.ndarray,
    gt_masks: np.ndarray,
    gt_classes: np.ndarray,
) -> np.ndarray:
    """(G, N) similarity of G ground truths to the N slots of (N, classes+1)
    class probabilities and (N, H, W) mask logits; entry (i, j) scores slot j
    for ground truth i by Dice coefficient plus class probability."""
    g = gt_masks.shape[0]
    n = class_probs.shape[0]
    if g > n:
        raise CapacityError(f"{g} ground-truth instances exceed {n} prediction slots")
    if g == 0:
        return np.zeros((0, n))
    gt = np.asarray(gt_masks, dtype=np.float64).reshape(g, 1, -1)
    soft = sigmoid(mask_logits).reshape(1, n, -1)
    return dice_coeff(gt, soft) + class_probs[:, np.asarray(gt_classes, dtype=np.int64)].T


def hungarian_assign(sim: np.ndarray) -> Assignment:
    """Maximum-total-similarity assignment of G ground truths to N slots.

    Augmenting-path algorithm with row/column potentials on the negated
    matrix, O(G^2 N).  The loops run on Python floats, which are the same
    IEEE doubles as numpy's float64 scalars at a fraction of the dispatch.
    """
    sim = np.asarray(sim, dtype=np.float64)
    if not np.isfinite(sim).all():
        raise NumericError("similarity matrix contains non-finite entries")
    g, n = sim.shape
    if g > n:
        raise CapacityError(f"{g} ground truths exceed {n} slots")
    if g == 0:
        return Assignment(gt_to_slot=(), total=0.0)
    cost = (-sim).tolist()
    inf = float("inf")
    u = [0.0] * (g + 1)
    v = [0.0] * (n + 1)
    match = [0] * (n + 1)  # column j -> row (1-based), 0 = free
    way = [0] * (n + 1)
    for i in range(1, g + 1):
        match[0] = i
        j0 = 0
        minv = [inf] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = match[j0]
            row, u_i0 = cost[i0 - 1], u[i0]
            delta = inf
            j1 = -1
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = row[j - 1] - u_i0 - v[j]
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
