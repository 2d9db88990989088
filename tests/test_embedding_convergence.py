"""Tests for quality-vs-time convergence curves."""

from __future__ import annotations

import numpy as np
import pytest

from repro.embedding.convergence import (
    CurvePoint,
    QualityTimeCurve,
    convergence_report,
    dominates,
    quality_time_curve,
    time_to_quality,
)


def _curve(method: str, points) -> QualityTimeCurve:
    return QualityTimeCurve(
        method=method,
        points=[CurvePoint(budget=i + 1, seconds=s, score=q)
                for i, (s, q) in enumerate(points)],
    )


class TestQualityTimeCurve:
    def test_best_score(self):
        curve = _curve("x", [(1.0, 0.6), (2.0, 0.8), (4.0, 0.75)])
        assert curve.best_score == 0.8

    def test_score_at_budget(self):
        curve = _curve("x", [(1.0, 0.6), (2.0, 0.8)])
        assert curve.score_at(1.5) == 0.6
        assert curve.score_at(2.0) == 0.8
        assert curve.score_at(0.5) == float("-inf")

    def test_empty_curve_raises(self):
        with pytest.raises(ValueError, match="no points"):
            QualityTimeCurve(method="x").best_score


class TestTimeToQuality:
    def test_first_feasible_budget(self):
        curve = _curve("x", [(1.0, 0.6), (2.0, 0.8), (4.0, 0.9)])
        assert time_to_quality(curve, 0.8) == 2.0
        assert time_to_quality(curve, 0.5) == 1.0

    def test_unreachable_is_inf(self):
        curve = _curve("x", [(1.0, 0.6)])
        assert time_to_quality(curve, 0.99) == float("inf")


class TestDominance:
    def test_strictly_better_dominates(self):
        fast = _curve("fast", [(1.0, 0.8), (2.0, 0.9)])
        slow = _curve("slow", [(1.0, 0.6), (2.0, 0.7)])
        assert dominates(fast, slow)
        assert not dominates(slow, fast)

    def test_curve_dominates_itself(self):
        curve = _curve("x", [(1.0, 0.6), (2.0, 0.8)])
        assert dominates(curve, curve)

    def test_crossing_curves_no_dominance(self):
        early = _curve("early", [(1.0, 0.8), (4.0, 0.82)])
        late = _curve("late", [(1.0, 0.5), (4.0, 0.95)])
        assert not dominates(early, late)
        assert not dominates(late, early)

    def test_tolerance(self):
        a = _curve("a", [(1.0, 0.78)])
        b = _curve("b", [(1.0, 0.80)])
        assert not dominates(a, b)
        assert dominates(a, b, tolerance=0.05)


class TestQualityTimeCurveRunner:
    def test_runs_real_system(self, medium_graph):
        from repro.tasks import auc_from_split, split_edges

        split = split_edges(medium_graph, test_fraction=0.3, seed=0)
        curve = quality_time_curve(
            split.train_graph, "distger",
            scorer=lambda emb: auc_from_split(emb, split),
            budgets=(1, 3),
            num_machines=2, dim=16, seed=0,
        )
        assert len(curve.points) == 2
        assert curve.points[0].budget == 1
        assert all(p.seconds > 0 for p in curve.points)
        # More epochs should not hurt at this starved scale.
        assert curve.points[1].score >= curve.points[0].score - 0.05

    def test_custom_embed_override(self, triangle):
        class FakeResult:
            def __init__(self, epochs):
                self.embeddings = np.full((3, 2), float(epochs))
                self.wall_seconds = epochs * 0.5

        curve = quality_time_curve(
            triangle, "fake",
            scorer=lambda emb: float(emb[0, 0]),
            budgets=(2, 1),
            embed=lambda g, epochs: FakeResult(epochs),
        )
        # Budgets are sorted; scores follow the fake epochs.
        assert [p.budget for p in curve.points] == [1, 2]
        assert [p.score for p in curve.points] == [1.0, 2.0]

    def test_validation(self, triangle):
        with pytest.raises(ValueError, match="at least one budget"):
            quality_time_curve(triangle, "distger", scorer=lambda e: 0.0,
                               budgets=())
        with pytest.raises(ValueError, match="positive"):
            quality_time_curve(triangle, "distger", scorer=lambda e: 0.0,
                               budgets=(0,))


class TestConvergenceReport:
    def test_rows(self):
        curves = {
            "a": _curve("a", [(1.0, 0.9)]),
            "b": _curve("b", [(1.0, 0.5)]),
        }
        rows = convergence_report(curves, target=0.8)
        by_name = {r[0]: r for r in rows}
        assert by_name["a"][1] == 0.9
        assert by_name["a"][2] == 1.0
        assert by_name["b"][2] == float("inf")
