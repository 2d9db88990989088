"""Tests for splits, logistic regression, and the evaluation harnesses."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import ring_of_cliques
from repro.tasks import (
    LogisticRegression,
    OneVsRestClassifier,
    evaluate_classification,
    sample_non_edges,
    split_edges,
    split_nodes,
)


class TestEdgeSplit:
    def test_split_sizes(self, medium_graph):
        split = split_edges(medium_graph, test_fraction=0.4, seed=0)
        removed = len(split.test_positive)
        assert removed == pytest.approx(0.4 * medium_graph.num_edges,
                                        rel=0.15)
        assert len(split.test_negative) == removed
        assert split.train_graph.num_edges == medium_graph.num_edges - removed

    def test_no_isolated_nodes(self, medium_graph):
        split = split_edges(medium_graph, test_fraction=0.5, seed=1)
        # Nodes that had edges keep at least one.
        had_edges = medium_graph.degrees > 0
        assert np.all(split.train_graph.degrees[had_edges] >= 1)

    def test_test_edges_absent_from_train(self, medium_graph):
        split = split_edges(medium_graph, test_fraction=0.3, seed=2)
        for u, v in split.test_positive[:30]:
            assert not split.train_graph.has_edge(int(u), int(v))

    def test_negatives_are_non_edges(self, medium_graph):
        split = split_edges(medium_graph, test_fraction=0.3, seed=3)
        for u, v in split.test_negative[:30]:
            assert not medium_graph.has_edge(int(u), int(v))
            assert u != v

    def test_deterministic(self, medium_graph):
        a = split_edges(medium_graph, seed=7)
        b = split_edges(medium_graph, seed=7)
        np.testing.assert_array_equal(a.test_positive, b.test_positive)

    def test_too_small_graph_rejected(self, triangle):
        with pytest.raises(ValueError, match="too small"):
            split_edges(triangle, test_fraction=0.5)

    def test_invalid_fraction(self, medium_graph):
        with pytest.raises(ValueError):
            split_edges(medium_graph, test_fraction=1.0)


class TestNonEdgeSampling:
    def test_count_and_validity(self, medium_graph, rng):
        pairs = sample_non_edges(medium_graph, 50, rng)
        assert pairs.shape == (50, 2)
        for u, v in pairs:
            assert not medium_graph.has_edge(int(u), int(v))

    def test_dense_graph_fails_gracefully(self, triangle, rng):
        with pytest.raises(RuntimeError, match="converge"):
            sample_non_edges(triangle, 100, rng)


class TestNodeSplit:
    def test_partition_of_ids(self):
        train, test = split_nodes(100, 0.3, seed=0)
        assert len(train) + len(test) == 100
        assert len(set(train) & set(test)) == 0
        assert len(train) == 30

    def test_extreme_ratio_keeps_both_sides(self):
        train, test = split_nodes(10, 0.99, seed=0)
        assert len(test) >= 1


class TestLogisticRegression:
    def test_separable_data(self, rng):
        x = np.concatenate([rng.normal(-2, 0.5, size=(50, 3)),
                            rng.normal(2, 0.5, size=(50, 3))])
        y = np.concatenate([np.zeros(50), np.ones(50)])
        model = LogisticRegression().fit(x, y)
        pred = model.decision_function(x) > 0
        assert (pred == y.astype(bool)).mean() > 0.95

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            LogisticRegression().decision_function(np.zeros((2, 2)))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            LogisticRegression().fit(np.zeros(3), np.zeros(3))

    def test_regularisation_shrinks_weights(self, rng):
        x = rng.normal(size=(80, 4))
        y = (x[:, 0] > 0).astype(float)
        loose = LogisticRegression(c=100.0).fit(x, y)
        tight = LogisticRegression(c=0.01).fit(x, y)
        assert np.linalg.norm(tight._weights[:-1]) < \
            np.linalg.norm(loose._weights[:-1])


class TestOneVsRest:
    def test_multi_label_prediction(self, rng):
        x = np.concatenate([rng.normal(-2, 0.5, size=(40, 4)),
                            rng.normal(2, 0.5, size=(40, 4))])
        labels = np.zeros((80, 2), dtype=bool)
        labels[:40, 0] = True
        labels[40:, 1] = True
        clf = OneVsRestClassifier().fit(x, labels)
        pred = clf.predict_top_k(x, labels.sum(axis=1))
        assert (pred == labels).mean() > 0.95

    def test_degenerate_label_column(self, rng):
        x = rng.normal(size=(20, 3))
        labels = np.zeros((20, 2), dtype=bool)
        labels[:, 0] = True  # constant-true column
        clf = OneVsRestClassifier().fit(x, labels)
        scores = clf.predict_scores(x)
        assert np.all(scores[:, 0] > scores[:, 1])

    def test_top_k_respects_counts(self, rng):
        x = rng.normal(size=(10, 3))
        labels = np.zeros((10, 4), dtype=bool)
        labels[:, :2] = True
        clf = OneVsRestClassifier().fit(x, labels)
        pred = clf.predict_top_k(x, np.full(10, 2))
        assert np.all(pred.sum(axis=1) == 2)


class TestClassificationHarness:
    def test_structured_embeddings_beat_noise(self, rng):
        # Embeddings that encode the label cleanly vs pure noise.
        labels = np.zeros((60, 3), dtype=bool)
        labels[np.arange(60), np.arange(60) % 3] = True
        good = np.zeros((60, 8))
        good[np.arange(60), np.arange(60) % 3] = 1.0
        good += rng.normal(0, 0.05, size=good.shape)
        noise = rng.normal(size=(60, 8))
        rep_good = evaluate_classification(good, labels, 0.5, trials=2, seed=0)
        rep_noise = evaluate_classification(noise, labels, 0.5, trials=2, seed=0)
        assert rep_good.mean_micro_f1 > rep_noise.mean_micro_f1 + 0.2
