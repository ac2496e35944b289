"""Induced operator norms and the norm-order parser."""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import ArgumentError

POWER_TOL = 1e-10
POWER_MAX_ITERS = 10_000
OPERATOR_ORDERS = (2.0, math.inf)


def norm_order(p, supported: tuple[float, ...] = (1.0, 2.0, math.inf)) -> float:
    """Parse a norm order given as a number or its string ("1", "2", "inf")."""
    try:
        order = float(p)
    except (TypeError, ValueError):
        order = None
    if order not in supported:
        names = ", ".join("inf" if s == math.inf else str(int(s)) for s in supported)
        raise ArgumentError(f"unsupported norm order {p!r} (use {names})")
    return order


def operator_norm(w, p) -> float:
    """Induced p-norm of a 2-D matrix.

    p=2: largest singular value via power iteration on W^T W
    (tolerance 1e-10, at most 10000 iterations).  p=inf: max absolute
    row sum.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2:
        raise ArgumentError(f"operator_norm expects a 2-D matrix, got ndim={w.ndim}")
    if norm_order(p, OPERATOR_ORDERS) == 2:
        gram = w.T @ w
        return spectral_norm(lambda v: gram @ v, (w.shape[1],))
    return float(np.abs(w).sum(axis=1).max())


def spectral_norm(gram: Callable[[np.ndarray], np.ndarray], shape: tuple) -> float:
    """Largest singular value of an operator A, given v -> A^T A v on inputs
    of `shape`: power iteration from a fixed random start."""
    rng = np.random.default_rng(0)
    v = rng.standard_normal(shape)
    v /= np.linalg.norm(v.ravel())
    lam = 0.0
    for _ in range(POWER_MAX_ITERS):
        u = gram(v)
        norm_u = np.linalg.norm(u.ravel())
        if norm_u == 0.0:
            return 0.0
        lam_new = float(np.vdot(v, u))
        v = u / norm_u
        if abs(lam_new - lam) <= POWER_TOL * max(1.0, abs(lam_new)):
            lam = lam_new
            break
        lam = lam_new
    return math.sqrt(max(lam, 0.0))
