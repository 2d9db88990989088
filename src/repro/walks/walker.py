"""Aggregate statistics of a sampling run."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List


@dataclass
class WalkStats:
    """Aggregate statistics of one sampling run (feeds Fig. 10/12 benches)."""

    total_walks: int = 0
    total_steps: int = 0
    total_trials: int = 0
    rounds: int = 0
    walk_lengths: List[int] = field(default_factory=list)
    kl_trace: List[float] = field(default_factory=list)

    @property
    def average_length(self) -> float:
        if not self.walk_lengths:
            return 0.0
        return sum(self.walk_lengths) / len(self.walk_lengths)

    @property
    def acceptance_rate(self) -> float:
        if self.total_trials == 0:
            return 1.0
        return self.total_steps / self.total_trials
