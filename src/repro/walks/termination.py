"""HuGE's two termination heuristics (paper §2.1, Eq. 5-7).

* **Walk length** -- a walk stops when the coefficient of determination
  between its entropy series and its length drops below ``mu``
  (``R²(H, L) < μ``): once entropy stops growing linearly, extra steps add
  redundancy.  Smaller ``μ`` ⇒ longer walks.

* **Walk count** -- rounds of walks (one walk per source per round) stop
  when the relative entropy between the degree distribution ``p`` and the
  corpus occurrence distribution ``q`` stabilises:
  ``|D_r(p‖q) − D_{r−1}(p‖q)| <= δ``.

Calibration note: the paper's ``μ = 0.995`` is
calibrated on graphs with 10⁶-10⁹ edges, where the entropy series has a
long near-linear ramp.  On the ~10³-node stand-ins used here the ramp is
shorter, so the same rule with the paper's constant terminates walks very
early; the dataclass defaults keep the paper's constants, and the
end-to-end systems pass laptop-calibrated values (`mu≈0.9`) chosen so the
resulting average walk length reproduces the paper's ~63% reduction
against the routine L = 80.  Both rules remain fully configurable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.utils.validation import check_positive, check_probability
from repro.walks.corpus import Corpus


@dataclass
class WalkLengthRule:
    """Per-walk termination: ``R²(H, L) < μ`` (Eq. 5) with length bounds."""

    mu: float = 0.995
    min_length: int = 5
    max_length: int = 80

    def __post_init__(self) -> None:
        check_probability("mu", self.mu)
        check_positive("min_length", self.min_length)
        if self.max_length < self.min_length:
            raise ValueError(
                f"max_length {self.max_length} < min_length {self.min_length}"
            )

    def stop_mask(self, lengths: np.ndarray, r_squared: np.ndarray) -> np.ndarray:
        """The rule over parallel walker-state arrays (token counts and
        R² values).

        The max-length cap fires first, then ``R² < μ`` gated by the
        minimum length -- the order a per-walker check takes, so the
        lock-step engine reaches the exact decisions of the scalar loop
        reference.
        """
        return (lengths >= self.max_length) | (
            (lengths >= self.min_length) & (r_squared < self.mu)
        )


@dataclass
class WalkCountRule:
    """Across-round termination: ``ΔD_r(p‖q) <= δ`` (Eq. 7).

    Stateful: call :meth:`observe_round` after each completed round; it
    returns ``True`` when sampling should stop.
    """

    delta: float = 0.001
    min_rounds: int = 2
    max_rounds: int = 10
    _previous_kl: Optional[float] = None
    kl_trace: List[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        check_positive("delta", self.delta)
        check_positive("min_rounds", self.min_rounds)
        if self.max_rounds < self.min_rounds:
            raise ValueError(
                f"max_rounds {self.max_rounds} < min_rounds {self.min_rounds}"
            )

    def observe_round(self, corpus: Corpus, degrees: np.ndarray) -> bool:
        """Record round ``r``'s divergence; return whether to stop."""
        kl = corpus.kl_from_degree_distribution(degrees)
        self.kl_trace.append(kl)
        rounds_done = len(self.kl_trace)
        stop = False
        if rounds_done >= self.max_rounds:
            stop = True
        elif rounds_done >= self.min_rounds and self._previous_kl is not None:
            stop = abs(kl - self._previous_kl) <= self.delta
        self._previous_kl = kl
        return stop

    @property
    def rounds_observed(self) -> int:
        return len(self.kl_trace)
