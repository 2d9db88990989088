"""Quality-vs-time convergence curves (the machinery behind Fig. 8).

Fig. 8 plots link-prediction AUC against the running time of random
walks + training for every system; the claim is that DistGER's curve
*dominates* -- at any time budget it is at least as good as every
competitor.  This module provides that protocol as a reusable tool:

* :func:`quality_time_curve` -- run one embedding method across a sweep
  of epoch budgets and record ``(seconds, score)`` points;
* :func:`time_to_quality` -- the first budget at which a curve reaches a
  target score (the "time-to-quality" metric of the PBG/DistDGL
  comparison in ``benchmarks/bench_fig8_quality_vs_time.py``);
* :func:`dominates` -- the Fig. 8 dominance check between two curves.

Scores come from any ``(embeddings) -> float`` callable; the link-
prediction scorer of :mod:`repro.tasks` is the paper's choice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

import numpy as np

from repro.graph.csr import CSRGraph


@dataclass
class CurvePoint:
    """One measured budget: wall seconds spent and the score reached."""

    budget: int            # epochs given to the run
    seconds: float         # wall seconds of the run
    score: float           # task score of the produced embeddings


@dataclass
class QualityTimeCurve:
    """A method's convergence curve over increasing budgets."""

    method: str
    points: List[CurvePoint] = field(default_factory=list)

    @property
    def best_score(self) -> float:
        if not self.points:
            raise ValueError("curve has no points")
        return max(p.score for p in self.points)

    def score_at(self, seconds: float) -> float:
        """Best score achievable within ``seconds`` (-inf if none fits)."""
        feasible = [p.score for p in self.points if p.seconds <= seconds]
        return max(feasible) if feasible else float("-inf")

    def as_rows(self) -> List[List]:
        return [[p.budget, p.seconds, p.score] for p in self.points]


def quality_time_curve(
    graph: CSRGraph,
    method: str,
    scorer: Callable[[np.ndarray], float],
    budgets: Sequence[int] = (1, 2, 4, 8),
    embed: Callable[[CSRGraph, int], object] | None = None,
    **embed_kwargs,
) -> QualityTimeCurve:
    """Measure ``method``'s convergence curve on ``graph``.

    Each budget runs the system from scratch with that many epochs (the
    paper's protocol -- systems are compared at their own natural
    checkpoints, not resumed).  ``scorer`` maps the embedding matrix to a
    task score; ``embed`` can override the system runner (it receives
    ``(graph, epochs)`` and must return an object with ``embeddings`` and
    ``wall_seconds`` attributes, like ``SystemResult``).
    """
    if not budgets:
        raise ValueError("need at least one budget")
    if any(b <= 0 for b in budgets):
        raise ValueError("budgets must be positive epoch counts")
    if embed is None:
        from repro.api import embed_graph

        def embed(g: CSRGraph, epochs: int):
            return embed_graph(g, method=method, epochs=epochs,
                               **embed_kwargs)

    curve = QualityTimeCurve(method=method)
    for budget in sorted(budgets):
        result = embed(graph, int(budget))
        curve.points.append(CurvePoint(
            budget=int(budget),
            seconds=float(result.wall_seconds),
            score=float(scorer(result.embeddings)),
        ))
    return curve


def time_to_quality(curve: QualityTimeCurve, target: float) -> float:
    """Seconds of the cheapest measured point reaching ``target``.

    ``inf`` when no measured budget reaches it -- the honest answer for a
    plateaued method (this is how the PBG/DistDGL efficiency deficit is
    expressed at stand-in scale; see ``bench_fig8_quality_vs_time.py``).
    """
    feasible = [p.seconds for p in curve.points if p.score >= target]
    return min(feasible) if feasible else float("inf")


def dominates(
    a: QualityTimeCurve,
    b: QualityTimeCurve,
    tolerance: float = 0.0,
) -> bool:
    """Fig. 8's claim, made checkable: at every one of ``b``'s measured
    budgets, ``a`` achieves at least ``b``'s score within the same time
    (minus ``tolerance``)."""
    return all(
        a.score_at(p.seconds) >= p.score - tolerance
        for p in b.points
    )


def convergence_report(
    curves: Dict[str, QualityTimeCurve], target: float
) -> List[List]:
    """Rows of ``[method, best score, time-to-target]`` for printing."""
    rows = []
    for name, curve in curves.items():
        rows.append([name, curve.best_score, time_to_quality(curve, target)])
    return rows
