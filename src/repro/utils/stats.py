"""Batch statistics helpers: entropies, divergences, regression.

These are the *reference* (non-incremental) implementations.  The walk
engines use the O(1) incremental versions from
:mod:`repro.utils.incremental`; tests assert both agree, and the HuGE-D
baseline deliberately uses these O(L) versions to reproduce the paper's
full-path computation cost.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Sequence

import numpy as np


def entropy_of_counts(counts: Iterable[int]) -> float:
    """Shannon entropy (bits) of a discrete distribution given by counts."""
    arr = np.asarray(list(counts) if not isinstance(counts, np.ndarray) else counts, dtype=np.float64)
    if arr.size == 0:
        return 0.0
    if np.any(arr < 0):
        raise ValueError("counts must be non-negative")
    total = arr.sum()
    if total <= 0:
        return 0.0
    p = arr[arr > 0] / total
    return float(-np.sum(p * np.log2(p)))


def entropy_of_sequence(seq: Sequence) -> float:
    """Shannon entropy (bits) of symbol occurrences in ``seq`` (Eq. 4)."""
    if len(seq) == 0:
        return 0.0
    return entropy_of_counts(Counter(seq).values())


def kl_divergence(p: np.ndarray, q: np.ndarray, eps: float = 1e-12) -> float:
    """Relative entropy ``D(p ‖ q)`` in bits (Eq. 6).

    Both inputs are normalised; ``q`` entries are floored at ``eps`` so the
    divergence stays finite when the corpus has not yet covered a node.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {q.shape}")
    p_sum, q_sum = p.sum(), q.sum()
    if p_sum <= 0 or q_sum <= 0:
        raise ValueError("distributions must have positive mass")
    p = p / p_sum
    q = np.maximum(q / q_sum, eps)
    mask = p > 0
    return float(np.sum(p[mask] * np.log2(p[mask] / q[mask])))


def r_squared(x: Sequence[float], y: Sequence[float]) -> float:
    """Coefficient of determination of the series ``x`` against ``y`` (Eq. 5).

    Returns 1.0 for degenerate inputs (fewer than two points, or a constant
    series), mirroring :class:`repro.utils.incremental.IncrementalCorrelation`.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    if x.size < 2:
        return 1.0
    dx = x - x.mean()
    dy = y - y.mean()
    var_x = float(np.dot(dx, dx))
    var_y = float(np.dot(dy, dy))
    if var_x <= 1e-15 or var_y <= 1e-15:
        return 1.0
    r = float(np.dot(dx, dy)) / np.sqrt(var_x * var_y)
    r = max(-1.0, min(1.0, r))
    return r * r
