"""Tests for the grid-search / model-selection harness."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import community_graph, multi_labels_from_communities
from repro.tasks import (
    GridSearchReport,
    ParameterGrid,
    Trial,
    classification_objective,
    grid_search,
    link_prediction_objective,
)


class TestParameterGrid:
    def test_cartesian_product(self):
        grid = ParameterGrid({"a": [1, 2], "b": ["x", "y", "z"]})
        combos = list(grid)
        assert len(grid) == 6
        assert combos[0] == {"a": 1, "b": "x"}
        assert combos[-1] == {"a": 2, "b": "z"}

    def test_last_key_varies_fastest(self):
        combos = list(ParameterGrid({"a": [1, 2], "b": [10, 20]}))
        assert combos == [
            {"a": 1, "b": 10}, {"a": 1, "b": 20},
            {"a": 2, "b": 10}, {"a": 2, "b": 20},
        ]

    def test_single_key(self):
        assert list(ParameterGrid({"lr": [0.1]})) == [{"lr": 0.1}]

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="must not be empty"):
            ParameterGrid({})

    def test_empty_values_rejected(self):
        with pytest.raises(ValueError, match="must not be empty"):
            ParameterGrid({"a": []})

    def test_scalar_values_rejected(self):
        with pytest.raises(TypeError, match="sequence"):
            ParameterGrid({"a": 3})
        with pytest.raises(TypeError, match="sequence"):
            ParameterGrid({"a": "abc"})


class TestGridSearch:
    def test_finds_known_optimum(self):
        # Concave objective over the grid: peak at x=3, y=-1.
        report = grid_search(
            lambda p: -((p["x"] - 3) ** 2) - (p["y"] + 1) ** 2,
            {"x": [1, 2, 3, 4], "y": [-2, -1, 0]},
        )
        assert report.best.params == {"x": 3, "y": -1}
        assert report.best_score == pytest.approx(0.0)
        assert len(report.trials) == 12

    def test_minimize(self):
        report = grid_search(
            lambda p: (p["x"] - 2) ** 2,
            {"x": [0, 1, 2, 3]},
            maximize=False,
        )
        assert report.best.params == {"x": 2}

    def test_records_timing(self):
        report = grid_search(lambda p: 1.0, {"x": [1, 2]})
        assert all(t.seconds >= 0 for t in report.trials)

    def test_to_rows_sorted_best_first(self):
        report = grid_search(lambda p: p["x"], {"x": [2, 5, 1]})
        rows = report.to_rows()
        assert [r[1] for r in rows] == [5, 2, 1]

    def test_empty_report_raises(self):
        with pytest.raises(ValueError, match="no trials"):
            GridSearchReport().best

    def test_trial_dataclass(self):
        t = Trial(params={"a": 1}, score=0.5, seconds=0.1)
        assert t.params["a"] == 1


@pytest.fixture(scope="module")
def labelled_graph():
    graph, comm = community_graph(120, 4, within_degree=8.0,
                                  cross_degree=0.5, seed=11)
    labels = multi_labels_from_communities(comm, num_labels=8, seed=11)
    return graph, labels


class TestObjectives:
    def test_link_prediction_objective_scores_params(self, labelled_graph):
        graph, _ = labelled_graph
        objective = link_prediction_objective(
            graph, method="distger", test_fraction=0.3, seed=0,
            num_machines=2, epochs=1,
        )
        score = objective({"dim": 16})
        assert 0.0 <= score <= 1.0
        # A real embedding on a community graph must beat coin-flipping.
        assert score > 0.55

    def test_link_prediction_grid_end_to_end(self, labelled_graph):
        graph, _ = labelled_graph
        objective = link_prediction_objective(
            graph, method="distger", test_fraction=0.3, seed=0,
            num_machines=2, epochs=1,
        )
        report = grid_search(objective, {"dim": [8, 16]})
        assert len(report.trials) == 2
        assert report.best.params["dim"] in (8, 16)

    def test_search_params_override_fixed(self, labelled_graph):
        graph, _ = labelled_graph
        seen = []

        def fake_embed(train_graph, params):
            seen.append(dict(params))
            return np.random.default_rng(0).normal(
                size=(train_graph.num_nodes, 4))

        objective = link_prediction_objective(
            graph, seed=0, embed=fake_embed, dim=4, epochs=9,
        )
        objective({"epochs": 1})
        assert seen[0]["epochs"] == 1   # searched value wins
        assert seen[0]["dim"] == 4      # fixed value passes through

    def test_classification_objective(self, labelled_graph):
        graph, labels = labelled_graph

        def fake_embed(g, params):
            # Deterministic structured embedding: one-hot community-ish
            # vectors recover the labels well above chance.
            rng = np.random.default_rng(1)
            return rng.normal(size=(g.num_nodes, params["dim"]))

        objective = classification_objective(
            graph, labels, embed=fake_embed, seed=0,
        )
        score = objective({"dim": 8})
        assert 0.0 <= score <= 1.0

    def test_same_split_across_grid_points(self, labelled_graph):
        """Every grid point must compete on identical held-out edges."""
        graph, _ = labelled_graph
        splits = []

        def spy_embed(train_graph, params):
            splits.append(train_graph.num_edges)
            return np.zeros((train_graph.num_nodes, 2))

        objective = link_prediction_objective(graph, seed=3, embed=spy_embed)
        grid_search(objective, {"dim": [2, 4, 8]})
        assert len(set(splits)) == 1
