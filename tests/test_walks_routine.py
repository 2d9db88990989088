"""Tests for routine walks (DeepWalk, and node2vec in its biased
regimes) sampled through the engine."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import CSRGraph, powerlaw_cluster
from repro.walks import WalkConfig

from oracles.walks import routine_corpus

#: Routine walkers: first-order DeepWalk and second-order node2vec in its
#: BFS-like (p < 1, q > 1) and DFS-like (p > 1, q < 1) regimes.
WALKERS = {
    "deepwalk": dict(kernel="deepwalk"),
    "node2vec-bfs": dict(kernel="node2vec", p=0.5, q=2.0),
    "node2vec-dfs": dict(kernel="node2vec", p=2.0, q=0.5),
}


@pytest.fixture(params=sorted(WALKERS))
def walker(request):
    return WALKERS[request.param]


class TestRoutineWalks:
    """Routine walks as the engine samples them, for every walker."""

    def test_shape_and_first_column(self, walker, small_graph):
        sources = np.arange(10, dtype=np.int64)
        corpus = routine_corpus(small_graph, 8, 1, seed=3, sources=sources,
                                **walker)
        assert corpus.num_walks == 10
        assert [int(w[0]) for w in corpus.walks] == sources.tolist()
        assert all(len(w) == 8 for w in corpus.walks)

    def test_steps_follow_edges(self, walker, small_graph):
        corpus = routine_corpus(small_graph, 11, 1, seed=5,
                                sources=np.arange(20), **walker)
        for walk in corpus.walks:
            for a, b in zip(walk[:-1], walk[1:]):
                assert small_graph.has_edge(int(a), int(b))

    def test_dead_end_stops_the_walk(self, walker):
        # Directed path 0->1->2: a walk from 0 stops at 2.
        g = CSRGraph.from_edges([(0, 1), (1, 2)], directed=True)
        corpus = routine_corpus(g, 6, 1, sources=np.array([0]), **walker)
        assert corpus.walks[0].tolist() == [0, 1, 2]

    def test_source_with_no_edges_stays(self, walker):
        g = CSRGraph.from_edges([(0, 1)], num_nodes=3)
        corpus = routine_corpus(g, 5, 1, sources=np.array([2]), **walker)
        assert corpus.walks[0].tolist() == [2]

    def test_deterministic_given_seed(self, walker, medium_graph):
        a = routine_corpus(medium_graph, 13, 1, seed=99,
                           sources=np.arange(30), **walker)
        b = routine_corpus(medium_graph, 13, 1, seed=99,
                           sources=np.arange(30), **walker)
        assert np.array_equal(a.tokens, b.tokens)

    def test_invalid_sources_raise(self, walker, triangle):
        with pytest.raises(ValueError, match="outside the graph"):
            routine_corpus(triangle, 4, 1, sources=np.array([7]), **walker)

    def test_empty_sources(self, walker, triangle):
        corpus = routine_corpus(triangle, 4, 1,
                                sources=np.empty(0, dtype=np.int64),
                                **walker)
        assert corpus.num_walks == 0

    def test_weighted_graph_follows_weights(self, walker):
        g = CSRGraph.from_edges([(0, 1), (0, 2)], weights=[50.0, 1.0])
        corpus = routine_corpus(g, 2, 400, seed=1, sources=np.array([0]),
                                **walker)
        picks = np.array([int(w[1]) for w in corpus.walks])
        assert np.sum(picks == 1) > 5 * np.sum(picks == 2)


class TestRoutineCorpus:
    def test_counts(self, walker, small_graph):
        corpus = routine_corpus(small_graph, 9, 3, seed=1, **walker)
        assert corpus.num_walks == 3 * small_graph.num_nodes
        assert corpus.average_walk_length == pytest.approx(9.0)

    def test_tracks_the_stationary_distribution(self, medium_graph):
        """Occupancy is proportional to degree on an undirected graph."""
        corpus = routine_corpus(medium_graph, 20, 5, seed=2)
        deg = medium_graph.degrees.astype(float)
        occ = corpus.occurrences.astype(float)
        assert np.corrcoef(occ, deg)[0, 1] > 0.9

    def test_custom_sources(self, walker, small_graph):
        corpus = routine_corpus(small_graph, 4, 2, sources=np.array([0, 1]),
                                **walker)
        assert corpus.num_walks == 4

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            WalkConfig.routine(kernel="deepwalk", walk_length=0)
        with pytest.raises(ValueError):
            WalkConfig.routine(kernel="deepwalk", walks_per_node=0)


def first_step_frequencies(graph, walks_per_node, seed=0) -> np.ndarray:
    """Row-stochastic first-hop frequencies of engine-sampled walks."""
    corpus = routine_corpus(graph, 2, walks_per_node, seed=seed)
    counts = np.zeros((graph.num_nodes, graph.num_nodes))
    for walk in corpus.walks:
        counts[walk[0], walk[1]] += 1.0
    rows = counts.sum(axis=1, keepdims=True)
    return np.divide(counts, rows, out=counts, where=rows > 0)


class TestFirstStepFrequencies:
    def test_rows_stochastic(self, triangle):
        mat = first_step_frequencies(triangle, 500)
        assert np.allclose(mat.sum(axis=1), 1.0)

    def test_uniform_on_triangle(self):
        g = CSRGraph.from_edges([(0, 1), (1, 2), (0, 2)])
        mat = first_step_frequencies(g, 4000, seed=1)
        assert mat[0, 1] == pytest.approx(0.5, abs=0.05)
        assert mat[0, 2] == pytest.approx(0.5, abs=0.05)

    def test_dead_end_row_zero(self):
        g = CSRGraph.from_edges([(0, 1)], num_nodes=3)
        mat = first_step_frequencies(g, 100)
        assert np.all(mat[2] == 0.0)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    walk_length=st.integers(min_value=1, max_value=12),
    name=st.sampled_from(sorted(WALKERS)),
)
def test_property_batch_walks_are_paths(seed, walk_length, name):
    """Every consecutive pair in a routine walk is an edge of the graph."""
    g = powerlaw_cluster(40, attach=2, seed=seed % 7)
    corpus = routine_corpus(g, walk_length + 1, 1, seed=seed,
                            **WALKERS[name])
    for walk in corpus.walks[:10]:
        for a, b in zip(walk[:-1], walk[1:]):
            assert g.has_edge(int(a), int(b))
