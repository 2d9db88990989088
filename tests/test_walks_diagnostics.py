"""Tests for corpus quality diagnostics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import CSRGraph, path, ring_of_cliques
from repro.walks import (
    Corpus,
    compare_corpora,
    corpus_quality,
    entropy_trace,
    traversed_edges,
)

from oracles.walks import routine_corpus


@pytest.fixture
def tri_corpus(triangle):
    corpus = Corpus(triangle.num_nodes)
    corpus.add_walk([0, 1, 2])
    return corpus


class TestTraversedEdges:
    def test_marks_walk_hops(self, triangle, tri_corpus):
        seen = traversed_edges(triangle, tri_corpus)
        # Walk 0-1-2 traverses edges (0,1) and (1,2) but not (0,2).
        assert seen.sum() == 2

    def test_both_directions_count_once(self, triangle):
        corpus = Corpus(3)
        corpus.add_walk([0, 1, 0, 1])  # back and forth over one edge
        seen = traversed_edges(triangle, corpus)
        assert seen.sum() == 1

    def test_directed_edges(self):
        g = CSRGraph.from_edges([(0, 1), (1, 0)], directed=True)
        corpus = Corpus(2)
        corpus.add_walk([0, 1])
        seen = traversed_edges(g, corpus)
        assert seen.sum() == 1  # only the 0->1 arc was used

    def test_empty_corpus(self, triangle):
        seen = traversed_edges(triangle, Corpus(3))
        assert seen.sum() == 0


class TestCorpusQuality:
    def test_full_coverage_on_exhaustive_corpus(self, small_graph):
        corpus = routine_corpus(small_graph, walk_length=40,
                                walks_per_node=10)
        q = corpus_quality(small_graph, corpus)
        assert q.node_coverage == pytest.approx(1.0)
        assert q.edge_coverage > 0.95
        assert q.tokens == corpus.total_tokens
        assert q.occupancy_kl < 0.2

    def test_partial_coverage(self, triangle, tri_corpus):
        q = corpus_quality(triangle, tri_corpus)
        assert q.node_coverage == pytest.approx(1.0)
        assert q.edge_coverage == pytest.approx(2.0 / 3.0)
        assert q.tokens == 3
        assert q.tokens_per_covered_node == pytest.approx(1.0)
        assert q.tokens_per_covered_edge == pytest.approx(1.5)

    def test_empty_corpus(self, triangle):
        q = corpus_quality(triangle, Corpus(3))
        assert q.node_coverage == 0.0
        assert q.edge_coverage == 0.0
        assert q.occupancy_kl == float("inf")

    def test_isolated_nodes_excluded_from_denominator(self):
        g = CSRGraph.from_edges([(0, 1)], num_nodes=4)
        corpus = Corpus(4)
        corpus.add_walk([0, 1])
        q = corpus_quality(g, corpus)
        assert q.node_coverage == pytest.approx(1.0)  # 2 of 2 walkable

    def test_universe_mismatch(self, triangle):
        with pytest.raises(ValueError, match="universe"):
            corpus_quality(triangle, Corpus(5))

    def test_as_dict_roundtrip(self, triangle, tri_corpus):
        d = corpus_quality(triangle, tri_corpus).as_dict()
        assert set(d) == {
            "tokens", "num_walks", "average_walk_length", "node_coverage",
            "edge_coverage", "occupancy_kl", "tokens_per_covered_node",
            "tokens_per_covered_edge",
        }


class TestCompareCorpora:
    def test_information_oriented_is_more_concise(self, medium_graph):
        """The §2.1 claim: similar coverage from far fewer tokens."""
        from repro.runtime.cluster import Cluster
        from repro.walks import DistributedWalkEngine, WalkConfig

        routine = routine_corpus(medium_graph, walk_length=80,
                                 walks_per_node=10)
        cluster = Cluster(1, np.zeros(medium_graph.num_nodes,
                                      dtype=np.int64), seed=0)
        info = DistributedWalkEngine(
            medium_graph, cluster, WalkConfig.distger()).run().corpus
        report = compare_corpora(medium_graph,
                                 {"routine": routine, "info": info})
        assert report["info"].tokens < 0.5 * report["routine"].tokens
        assert report["info"].node_coverage > 0.95
        assert report["info"].tokens_per_covered_node < \
            report["routine"].tokens_per_covered_node


class TestEntropyTrace:
    def test_matches_direct_formula(self):
        walk = [0, 1, 0, 2, 1, 1]
        trace = entropy_trace(walk)
        assert len(trace) == len(walk)
        # Prefix [0, 1, 0]: p = (2/3, 1/3).
        expected = -(2 / 3 * np.log2(2 / 3) + 1 / 3 * np.log2(1 / 3))
        assert trace[2] == pytest.approx(expected)

    def test_single_node_zero_entropy(self):
        assert entropy_trace([5]) == [pytest.approx(0.0)]

    def test_repeated_node_stays_zero(self):
        assert all(h == pytest.approx(0.0) for h in entropy_trace([3, 3, 3]))

    def test_agrees_with_incom_accumulator(self):
        from oracles.walks import IncrementalWalkMeasure

        rng = np.random.default_rng(4)
        walk = rng.integers(0, 6, size=30)
        trace = entropy_trace(walk)
        measure = IncrementalWalkMeasure()
        for node, expected in zip(walk, trace):
            measure.observe(int(node))
            assert measure.entropy == pytest.approx(expected, abs=1e-9)

    def test_entropy_ramp_flattens_on_small_graph(self, path_graph):
        """The behaviour the R² termination rule exploits: the entropy of
        a walk on a small graph grows then saturates."""
        corpus = routine_corpus(path_graph, walk_length=60,
                                walks_per_node=1, seed=1)
        trace = entropy_trace(corpus.walks[0])
        early_growth = trace[9] - trace[0]
        late_growth = trace[-1] - trace[-10]
        assert early_growth > late_growth
