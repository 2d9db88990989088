"""Tests for the alias-table samplers, the alias kernel, and routine
walks sampled through the engine."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import CSRGraph, path, powerlaw_cluster, ring_of_cliques
from repro.walks import (
    KERNELS,
    FirstOrderAliasSampler,
    Node2VecAliasKernel,
    Node2VecKernel,
    SecondOrderAliasSampler,
    WalkConfig,
    make_kernel,
    second_order_table_entries,
)

from oracles.walks import accepted_draws, routine_corpus


def _exact_node2vec_distribution(
    graph: CSRGraph, previous: int, current: int, p: float, q: float
) -> dict:
    """Normalised second-order transition probabilities, by definition."""
    weights = {}
    for v in graph.neighbors(current):
        v = int(v)
        if v == previous:
            pi = 1.0 / p
        elif graph.has_edge(previous, v):
            pi = 1.0
        else:
            pi = 1.0 / q
        weights[v] = pi * graph.edge_weight(current, v)
    total = sum(weights.values())
    return {v: w / total for v, w in weights.items()}


def alias_draws(sampler, nodes, rng) -> np.ndarray:
    """One first-order draw per node, each from two uniforms of ``rng``."""
    return np.array([sampler.sample_one_with_uniforms(int(u), u1, u2)
                     for u, (u1, u2) in zip(nodes, rng.random((len(nodes), 2)))])


class TestFirstOrderAlias:
    def test_samples_are_neighbors(self, small_graph, rng):
        sampler = FirstOrderAliasSampler(small_graph)
        nodes = np.array([0, 1, 5, 9])
        for _ in range(20):
            out = alias_draws(sampler, nodes, rng)
            for u, v in zip(nodes, out):
                assert small_graph.has_edge(int(u), int(v))

    def test_unweighted_uniform(self, rng):
        g = CSRGraph.from_edges([(0, 1), (0, 2), (0, 3)])
        sampler = FirstOrderAliasSampler(g)
        draws = alias_draws(sampler, np.zeros(6000, dtype=np.int64), rng)
        counts = np.bincount(draws, minlength=4)[1:]
        assert counts.min() > 0.8 * counts.max()

    def test_weighted_proportional(self, rng):
        g = CSRGraph.from_edges([(0, 1), (0, 2)], weights=[3.0, 1.0])
        sampler = FirstOrderAliasSampler(g)
        draws = alias_draws(sampler, np.zeros(8000, dtype=np.int64), rng)
        ratio = np.sum(draws == 1) / max(1, np.sum(draws == 2))
        assert 2.4 < ratio < 3.8

    def test_degree_zero_raises(self):
        g = CSRGraph.from_edges([(0, 1)], num_nodes=3)
        sampler = FirstOrderAliasSampler(g)
        with pytest.raises(ValueError, match="degree-0"):
            sampler.sample_one_with_uniforms(2, 0.5, 0.5)

    def test_memory_and_setup_accounting(self, medium_graph):
        sampler = FirstOrderAliasSampler(medium_graph)
        assert sampler.memory_bytes() > 0
        assert sampler.build_seconds >= 0.0

    def test_sample_one(self, triangle, rng):
        sampler = FirstOrderAliasSampler(triangle)
        assert alias_draws(sampler, [0], rng)[0] in (1, 2)


def alias_steps(sampler, current, previous, rng, count) -> np.ndarray:
    """``count`` second-order draws, each from two uniforms of ``rng``."""
    return np.array([
        sampler.sample_step_with_uniforms(current, previous, u1, u2)
        for u1, u2 in rng.random((count, 2))])


class TestSecondOrderAlias:
    def test_table_entry_count_matches_prediction(self, small_graph):
        sampler = SecondOrderAliasSampler(small_graph)
        assert sampler.num_table_entries == second_order_table_entries(small_graph)

    def test_entries_formula(self):
        # Triangle: 6 arcs, each endpoint has degree 2 -> 12 entries.
        g = CSRGraph.from_edges([(0, 1), (1, 2), (0, 2)])
        assert second_order_table_entries(g) == 12

    def test_memory_exceeds_first_order(self, medium_graph):
        second = SecondOrderAliasSampler(medium_graph)
        first = FirstOrderAliasSampler(medium_graph)
        assert second.memory_bytes() > first.memory_bytes()

    def test_arc_index_roundtrip(self, small_graph):
        sampler = SecondOrderAliasSampler(small_graph)
        t = 0
        for k, u in enumerate(small_graph.neighbors(t)):
            assert sampler.arc_index(t, int(u)) == small_graph.indptr[t] + k

    def test_arc_index_missing_raises(self, path_graph):
        sampler = SecondOrderAliasSampler(path_graph)
        with pytest.raises(KeyError):
            sampler.arc_index(0, 5)

    def test_matches_exact_distribution(self, rng):
        g = ring_of_cliques(3, 5)
        p, q = 0.5, 2.0
        sampler = SecondOrderAliasSampler(g, p=p, q=q)
        previous, current = 0, 1
        exact = _exact_node2vec_distribution(g, previous, current, p, q)
        draws = alias_steps(sampler, current, previous, rng, 4000).tolist()
        counts = {v: draws.count(v) / len(draws) for v in exact}
        for v, prob in exact.items():
            assert counts[v] == pytest.approx(prob, abs=0.04)

    def test_matches_rejection_kernel_distribution(self, rng):
        """Alias tables and rejection sampling target the same distribution."""
        g = ring_of_cliques(3, 4)
        p, q = 2.0, 0.5
        alias = SecondOrderAliasSampler(g, p=p, q=q)
        rejection = Node2VecKernel(g, p=p, q=q)
        previous, current = 0, 1
        n = 4000
        a_draws = alias_steps(alias, current, previous, rng, n)
        r_draws = accepted_draws(rejection, current, previous, rng, n)
        for v in np.unique(a_draws):
            fa = np.mean(a_draws == v)
            fr = np.mean(r_draws == v)
            assert fa == pytest.approx(fr, abs=0.05)

    def test_first_step_is_first_order(self, triangle, rng):
        sampler = SecondOrderAliasSampler(triangle)
        draws = set(alias_steps(sampler, 0, -1, rng, 50).tolist())
        assert draws == {1, 2}

    def test_weighted_graph(self, weighted_triangle, rng):
        sampler = SecondOrderAliasSampler(weighted_triangle, p=1.0, q=1.0)
        out = alias_steps(sampler, 1, 0, rng, 1)[0]
        assert out in (0, 2)

    def test_small_p_prefers_backtracking(self, rng):
        g = ring_of_cliques(3, 5)
        sampler = SecondOrderAliasSampler(g, p=0.05, q=1.0)
        draws = alias_steps(sampler, 1, 0, rng, 800).tolist()
        back_rate = draws.count(0) / len(draws)
        uniform_rate = 1.0 / g.degree(1)
        assert back_rate > 2 * uniform_rate


class TestAliasKernel:
    def test_registered(self):
        assert "node2vec-alias" in KERNELS

    def test_make_kernel(self, small_graph):
        k = make_kernel(WalkConfig(kernel="node2vec-alias", p=0.5, q=2.0),
                        small_graph)
        assert isinstance(k, Node2VecAliasKernel)
        assert k.message_fields == 4

    def test_never_rejects(self, small_graph, rng):
        k = Node2VecAliasKernel(small_graph, p=4.0, q=4.0)
        for u1, u2 in rng.random((50, 2)):
            assert k.step_with_uniforms(1, 0, u1, u2, False) is not None

    def test_runs_in_engine(self, small_graph):
        from repro.partition import HashPartitioner
        from repro.runtime.cluster import Cluster
        from repro.walks import DistributedWalkEngine

        assignment = HashPartitioner().partition(small_graph, 2).assignment
        cluster = Cluster(2, assignment, seed=0)
        cfg = WalkConfig.routine(kernel="node2vec-alias", walk_length=8,
                                 walks_per_node=1, p=0.5, q=2.0)
        result = DistributedWalkEngine(small_graph, cluster, cfg).run()
        assert result.corpus.num_walks == small_graph.num_nodes
        assert all(len(w) == 8 for w in result.corpus.walks)


class TestRoutineWalks:
    """Routine (DeepWalk) walks as the engine samples them."""

    def test_shape_and_first_column(self, small_graph):
        sources = np.arange(10, dtype=np.int64)
        corpus = routine_corpus(small_graph, 8, 1, seed=3, sources=sources)
        assert corpus.num_walks == 10
        assert [int(w[0]) for w in corpus.walks] == sources.tolist()
        assert all(len(w) == 8 for w in corpus.walks)

    def test_steps_follow_edges(self, small_graph):
        corpus = routine_corpus(small_graph, 11, 1, seed=5,
                                sources=np.arange(20))
        for walk in corpus.walks:
            for a, b in zip(walk[:-1], walk[1:]):
                assert small_graph.has_edge(int(a), int(b))

    def test_dead_end_stops_the_walk(self):
        # Directed path 0->1->2: a walk from 0 stops at 2.
        g = CSRGraph.from_edges([(0, 1), (1, 2)], directed=True)
        corpus = routine_corpus(g, 6, 1, sources=np.array([0]))
        assert corpus.walks[0].tolist() == [0, 1, 2]

    def test_source_with_no_edges_stays(self):
        g = CSRGraph.from_edges([(0, 1)], num_nodes=3)
        corpus = routine_corpus(g, 5, 1, sources=np.array([2]))
        assert corpus.walks[0].tolist() == [2]

    def test_deterministic_given_seed(self, medium_graph):
        a = routine_corpus(medium_graph, 13, 1, seed=99, sources=np.arange(30))
        b = routine_corpus(medium_graph, 13, 1, seed=99, sources=np.arange(30))
        assert np.array_equal(a.tokens, b.tokens)

    def test_invalid_sources_raise(self, triangle):
        with pytest.raises(ValueError, match="outside the graph"):
            routine_corpus(triangle, 4, 1, sources=np.array([7]))

    def test_empty_sources(self, triangle):
        corpus = routine_corpus(triangle, 4, 1,
                                sources=np.empty(0, dtype=np.int64))
        assert corpus.num_walks == 0

    def test_weighted_graph_follows_weights(self):
        g = CSRGraph.from_edges([(0, 1), (0, 2)], weights=[50.0, 1.0])
        corpus = routine_corpus(g, 2, 400, seed=1, sources=np.array([0]))
        picks = np.array([int(w[1]) for w in corpus.walks])
        assert np.sum(picks == 1) > 5 * np.sum(picks == 2)


class TestRoutineCorpus:
    def test_counts(self, small_graph):
        corpus = routine_corpus(small_graph, 9, 3, seed=1)
        assert corpus.num_walks == 3 * small_graph.num_nodes
        assert corpus.average_walk_length == pytest.approx(9.0)

    def test_tracks_the_stationary_distribution(self, medium_graph):
        """Occupancy is proportional to degree on an undirected graph."""
        corpus = routine_corpus(medium_graph, 20, 5, seed=2)
        deg = medium_graph.degrees.astype(float)
        occ = corpus.occurrences.astype(float)
        assert np.corrcoef(occ, deg)[0, 1] > 0.9

    def test_custom_sources(self, small_graph):
        corpus = routine_corpus(small_graph, 4, 2, sources=np.array([0, 1]))
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


@settings(max_examples=25, deadline=None)
@given(
    num_cliques=st.integers(min_value=2, max_value=4),
    clique_size=st.integers(min_value=3, max_value=6),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_alias_samples_valid_neighbors(num_cliques, clique_size, seed):
    """Every alias-table draw lands on an actual neighbour."""
    g = ring_of_cliques(num_cliques, clique_size)
    rng = np.random.default_rng(seed)
    sampler = SecondOrderAliasSampler(g, p=0.5, q=2.0)
    current = int(rng.integers(0, g.num_nodes))
    previous = int(g.neighbors(current)[0])
    for out in alias_steps(sampler, current, previous, rng, 10):
        assert g.has_edge(current, int(out))


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    walk_length=st.integers(min_value=1, max_value=12),
)
def test_property_batch_walks_are_paths(seed, walk_length):
    """Every consecutive pair in a routine walk is an edge of the graph."""
    g = powerlaw_cluster(40, attach=2, seed=seed % 7)
    corpus = routine_corpus(g, walk_length + 1, 1, seed=seed)
    for walk in corpus.walks[:10]:
        for a, b in zip(walk[:-1], walk[1:]):
            assert g.has_edge(int(a), int(b))
