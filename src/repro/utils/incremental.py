"""O(1) streaming statistics -- the mathematical core of InCoM (paper §3.1).

The baseline HuGE-D recomputes the walk entropy ``H(W_L)`` and the linear
determination coefficient ``R²(H, L)`` from the full path at every step,
costing O(L) per step and O(L²) per walk.  DistGER's InCoM observes that both
quantities admit exact O(1) incremental updates:

* **Entropy** (Theorem 1).  With ``n(v)`` the occurrence count of node ``v``
  in the walk and ``S = Σ_v n(v)·log₂ n(v)``, the walk entropy is
  ``H(W_L) = log₂ L − S / L``.  Appending a node whose prior count is ``n``
  changes ``S`` by ``(n+1)log₂(n+1) − n log₂ n`` -- an O(1) update.  The
  paper states the equivalent multiplicative ``T`` form
  (``H_{L+1} = (H_L·L − log₂ T)/(L+1)``); the direct ``S`` form is the
  one implemented here.

* **Regression** (Eq. 12/13).  ``R(H, L)`` needs only the five running
  moments ``E(H), E(L), E(HL), E(H²), E(L²)``; each is a mean and updates in
  O(1) via ``E_p = ((p−1)/p)·E_{p−1} + x_p/p``.

These classes are also exactly the per-walk state a walker carries in a
constant-size cross-machine message (10 numbers, 80 bytes -- see
:mod:`repro.runtime.message`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Hashable

import numpy as np


def _xlog2x(n: float) -> float:
    """Return ``n * log2(n)`` with the conventional ``0·log 0 = 0``.

    Uses ``np.log2`` (not ``math.log2``): NumPy's scalar ufunc path is
    bit-identical to its array path, so the vectorized walk engine's batch
    entropy accumulators reproduce these scalar updates exactly -- libm's
    ``math.log2`` differs from NumPy's in the last ulp on some platforms,
    which would break the loop/vectorized reference-parity suite.
    """
    return 0.0 if n <= 0 else float(n * np.log2(n))


@dataclass
class IncrementalEntropy:
    """Streaming Shannon entropy (base 2) of a sequence of symbols.

    Maintains ``S = Σ_v n(v) log₂ n(v)`` and the length ``L`` so that the
    entropy of everything seen so far is ``log₂ L − S/L``.  This *is* the
    per-machine "local frequency list" of the paper: :attr:`counts` holds the
    occurrence counts of locally-stored nodes, while ``S`` and ``L`` travel
    with the walker across machines.
    """

    length: int = 0
    _s: float = 0.0
    counts: Dict[Hashable, int] = field(default_factory=dict)

    def add(self, symbol: Hashable) -> float:
        """Append ``symbol``; return the new entropy.  O(1)."""
        n = self.counts.get(symbol, 0)
        self.counts[symbol] = n + 1
        self._s += _xlog2x(n + 1) - _xlog2x(n)
        self.length += 1
        return self.value

    @property
    def value(self) -> float:
        """Entropy (bits) of the sequence observed so far."""
        if self.length <= 0:
            return 0.0
        # np.log2 for bit-parity with the vectorized engine (see _xlog2x).
        return float(np.log2(self.length) - self._s / self.length)


@dataclass
class IncrementalMean:
    """Streaming mean ``E_p(X) = ((p−1)/p)E_{p−1}(X) + x_p/p`` (Eq. 13)."""

    count: int = 0
    value: float = 0.0

    def add(self, x: float) -> float:
        self.count += 1
        self.value += (x - self.value) / self.count
        return self.value


@dataclass
class IncrementalCorrelation:
    """Streaming Pearson correlation / R² from five running moments.

    Implements Eq. 12 with every expectation maintained per Eq. 13.  Feeding
    the pairs ``(H(W_1), 1), (H(W_2), 2), ...`` reproduces HuGE's
    walk-termination statistic ``R²(H, L)`` in O(1) per step.
    """

    e_x: IncrementalMean = field(default_factory=IncrementalMean)
    e_y: IncrementalMean = field(default_factory=IncrementalMean)
    e_xy: IncrementalMean = field(default_factory=IncrementalMean)
    e_x2: IncrementalMean = field(default_factory=IncrementalMean)
    e_y2: IncrementalMean = field(default_factory=IncrementalMean)

    def add(self, x: float, y: float) -> None:
        self.e_x.add(x)
        self.e_y.add(y)
        self.e_xy.add(x * y)
        self.e_x2.add(x * x)
        self.e_y2.add(y * y)

    @property
    def count(self) -> int:
        return self.e_x.count

    @property
    def correlation(self) -> float:
        """Pearson ``R``; 1.0 while degenerate (fewer than 2 points or a
        zero-variance series), matching HuGE's "keep walking" behaviour."""
        if self.count < 2:
            return 1.0
        # Explicit multiplication rather than ``**2``: CPython's float pow
        # rounds differently from NumPy's squaring in the last ulp, and the
        # vectorized walk engine must reproduce these moments bit-exactly.
        var_x = self.e_x2.value - self.e_x.value * self.e_x.value
        var_y = self.e_y2.value - self.e_y.value * self.e_y.value
        if var_x <= 1e-15 or var_y <= 1e-15:
            return 1.0
        cov = self.e_xy.value - self.e_x.value * self.e_y.value
        r = cov / math.sqrt(var_x * var_y)
        return max(-1.0, min(1.0, r))

    @property
    def r_squared(self) -> float:
        """Coefficient of determination ``R²`` of the streamed pairs."""
        r = self.correlation
        return r * r
