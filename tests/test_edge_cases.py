"""Failure injection and degenerate-input behaviour across the stack.

A production library's edges: isolated nodes, empty corpora, dead-end
directed graphs, single-node partitions, zero-occurrence vocabularies.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.embedding import (
    DistributedTrainer,
    EmbeddingModel,
    NegativeSampler,
    TrainConfig,
    Vocabulary,
)
from repro.graph import CSRGraph, star
from repro.runtime import Cluster
from repro.systems import DistGER
from repro.utils.rng import CounterStream
from repro.walks import (
    Corpus,
    DistributedWalkEngine,
    WalkConfig,
    WalkStats,
)

from oracles.walks import LoopWalkEngine, Walker

#: The lock-step engine and the per-walker loop oracle, by name.
ENGINES = {"loop": LoopWalkEngine, "vectorized": DistributedWalkEngine}


class TestIsolatedNodes:
    def test_walk_engine_skips_isolated_sources(self):
        g = CSRGraph.from_edges([(0, 1)], num_nodes=4)  # 2, 3 isolated
        cluster = Cluster(1, np.zeros(4, dtype=np.int64), seed=0)
        cfg = WalkConfig.routine("deepwalk", walk_length=5, walks_per_node=1)
        result = DistributedWalkEngine(g, cluster, cfg).run()
        starts = {int(w[0]) for w in result.corpus.walks}
        assert starts == {0, 1}

    def test_isolated_nodes_get_embeddings_anyway(self):
        g = CSRGraph.from_edges([(0, 1), (1, 2), (0, 2)], num_nodes=5)
        result = DistGER(num_machines=1, dim=8, epochs=1, seed=0).embed(g)
        assert result.embeddings.shape == (5, 8)
        assert np.all(np.isfinite(result.embeddings))


class TestDirectedDeadEnds:
    def test_star_out_edges_only(self):
        # All arcs point hub -> leaves; every walk dies after one hop.
        edges = [(0, i) for i in range(1, 6)]
        g = CSRGraph.from_edges(edges, directed=True)
        cluster = Cluster(1, np.zeros(6, dtype=np.int64), seed=0)
        cfg = WalkConfig.distger(max_rounds=1, min_rounds=1)
        result = DistributedWalkEngine(g, cluster, cfg).run()
        assert max(result.stats.walk_lengths) <= 2


class TestEmptyAndTiny:
    def test_trainer_on_single_walk(self):
        corpus = Corpus(3)
        corpus.add_walk([0, 1, 2])
        cluster = Cluster(2, np.zeros(3, dtype=np.int64), seed=0)
        result = DistributedTrainer(
            corpus, cluster, TrainConfig(dim=4, window=2, negatives=1,
                                         epochs=1)
        ).train()
        assert result.embeddings.shape == (3, 4)

    def test_vocabulary_all_zero_counts(self):
        corpus = Corpus(4)  # nothing added
        vocab = Vocabulary.from_corpus(corpus)
        assert vocab.max_occurrence == 0
        sampler = NegativeSampler(vocab)  # falls back to uniform
        rows = sampler.sample_rows_stream(4000, CounterStream(0))
        np.testing.assert_allclose(np.bincount(rows, minlength=4) / 4000,
                                   [0.25] * 4, atol=0.05)

    def test_model_on_tiny_vocab(self):
        corpus = Corpus(1)
        corpus.add_walk([0])
        vocab = Vocabulary.from_corpus(corpus)
        model = EmbeddingModel(vocab, dim=4, seed=0)
        assert model.embeddings_node_space().shape == (1, 4)

    def test_system_on_triangle(self, triangle):
        result = DistGER(num_machines=1, dim=4, epochs=1, seed=0).embed(triangle)
        assert result.embeddings.shape == (3, 4)


class TestWalkerState:
    def test_start_includes_source(self):
        w = Walker.start(5, 7)
        assert w.path == [7]
        assert w.length == 1
        assert w.steps == 0

    def test_advance_tracks_previous(self):
        w = Walker.start(0, 1)
        w.advance(4)
        assert w.previous == 1
        assert w.current == 4
        assert w.steps == 1
        w.advance(2)
        assert w.previous == 4
        assert w.length == 3

    def test_stats_aggregates(self):
        s = WalkStats()
        s.walk_lengths = [10, 20]
        s.total_steps = 28
        s.total_trials = 56
        assert s.average_length == 15.0
        assert s.acceptance_rate == 0.5

    def test_stats_empty(self):
        s = WalkStats()
        assert s.average_length == 0.0
        assert s.acceptance_rate == 1.0


class TestHubGraph:
    def test_star_walks_bounce_through_hub(self, star_graph):
        cluster = Cluster(1, np.zeros(star_graph.num_nodes, dtype=np.int64),
                          seed=0)
        cfg = WalkConfig.routine("deepwalk", walk_length=9, walks_per_node=1)
        result = DistributedWalkEngine(star_graph, cluster, cfg).run()
        for walk in result.corpus.walks:
            # Alternates hub/leaf: every other position is the hub.
            positions = np.flatnonzero(np.asarray(walk) == 0)
            assert np.all(np.diff(positions) == 2)

    def test_hub_dominates_corpus_frequency(self, star_graph):
        cluster = Cluster(1, np.zeros(star_graph.num_nodes, dtype=np.int64),
                          seed=0)
        cfg = WalkConfig.routine("deepwalk", walk_length=6, walks_per_node=2)
        result = DistributedWalkEngine(star_graph, cluster, cfg).run()
        vocab = Vocabulary.from_corpus(result.corpus)
        assert vocab.row_to_node[0] == 0  # the hub is the hottest row


class TestVectorizedEngineEdges:
    """Degenerate inputs through the batched InCoM engine (and, where the
    behaviour must match, through the per-walker loop oracle too)."""

    @staticmethod
    def _run(graph, cfg, machines=1, seed=0, sources=None,
             engine="vectorized"):
        cluster = Cluster(
            machines,
            np.arange(graph.num_nodes, dtype=np.int64) % machines,
            seed=seed,
        )
        return ENGINES[engine](graph, cluster, cfg).run(sources=sources)

    def test_isolated_vertices_skipped_by_default(self):
        g = CSRGraph.from_edges([(0, 1), (1, 2)], num_nodes=6)  # 3..5 isolated
        result = self._run(g, WalkConfig.distger(max_rounds=1, min_rounds=1))
        starts = {int(w[0]) for w in result.corpus.walks}
        assert starts == {0, 1, 2}

    def test_isolated_vertex_as_explicit_source(self):
        """An explicitly requested dead source yields a length-1 walk in
        both engines (the walker dies where it stands)."""
        g = CSRGraph.from_edges([(0, 1)], num_nodes=3)  # node 2 isolated
        cfg = WalkConfig.distger(max_rounds=1, min_rounds=1)
        for engine in ENGINES:
            result = self._run(g, cfg, sources=np.array([2, 0]),
                               engine=engine)
            assert [len(w) for w in result.corpus.walks][0] == 1
            assert int(result.corpus.walks[0][0]) == 2

    def test_single_node_graph(self):
        g = CSRGraph.from_edges([], num_nodes=1)
        result = self._run(g, WalkConfig.distger())
        assert result.corpus.num_walks == 0
        assert result.stats.total_walks == 0

    def test_empty_graph_routine(self):
        g = CSRGraph.from_edges([], num_nodes=4)
        result = self._run(g, WalkConfig.routine("deepwalk"))
        assert result.corpus.num_walks == 0

    def test_self_loop_graph(self):
        """A raw CSR self-loop pins the walker to one node: zero entropy
        growth keeps R² degenerate at 1, so the walk runs to max_length --
        identically in both engines."""
        indptr = np.array([0, 1], dtype=np.int64)
        indices = np.array([0], dtype=np.int64)  # 0 -> 0
        g = CSRGraph(indptr, indices, directed=True)
        walks = {}
        cfg = WalkConfig.distger(max_rounds=1, min_rounds=1, max_length=12)
        for engine in ENGINES:
            result = self._run(g, cfg, engine=engine)
            assert result.stats.walk_lengths == [12]
            walks[engine] = [tuple(int(v) for v in w)
                              for w in result.corpus.walks]
        assert walks["loop"] == walks["vectorized"]
        assert walks["loop"][0] == (0,) * 12

    def test_mu_zero_every_walker_hits_max_length(self, small_graph):
        """mu = 0 disables the R² rule (R² < 0 is impossible), so every
        walk on a dead-end-free graph runs to max_length exactly."""
        cfg = WalkConfig.distger(mu=0.0, max_length=17, max_rounds=1,
                                 min_rounds=1)
        result = self._run(small_graph, cfg)
        assert result.stats.walk_lengths == [17] * small_graph.num_nodes

    def test_mu_one_stops_at_min_length(self, small_graph):
        """mu = 1 stops as soon as the length floor admits any non-perfect
        R²; no walk may exceed a perfectly-linear entropy ramp's length."""
        cfg = WalkConfig.distger(mu=1.0, min_length=4, max_length=40,
                                 max_rounds=1, min_rounds=1)
        result = self._run(small_graph, cfg)
        assert all(l >= 4 for l in result.stats.walk_lengths)
        # R² of a 4-token walk is almost never exactly 1.0: the bulk must
        # stop right at the floor.
        assert np.median(result.stats.walk_lengths) == 4

    def test_mu_extremes_parity(self, small_graph):
        for mu in (0.0, 1.0):
            runs = []
            cfg = WalkConfig.distger(mu=mu, max_rounds=1, min_rounds=1)
            for engine in ENGINES:
                result = self._run(small_graph, cfg, machines=2, seed=5,
                                   engine=engine)
                runs.append([tuple(int(v) for v in w)
                             for w in result.corpus.walks])
            assert runs[0] == runs[1]

    def test_min_walk_length_one_routine(self, triangle):
        cfg = WalkConfig.routine("deepwalk", walk_length=1, walks_per_node=2)
        result = self._run(triangle, cfg)
        assert all(l == 1 for l in result.stats.walk_lengths)
        assert result.corpus.num_walks == 2 * triangle.num_nodes


class TestSingleMachineEquivalence:
    def test_one_machine_sync_modes_agree(self):
        """With one machine every sync strategy is a no-op: identical
        embeddings regardless of mode."""
        corpus = Corpus(10)
        rng = np.random.default_rng(3)
        for _ in range(10):
            corpus.add_walk(rng.integers(0, 10, size=8))
        outs = []
        for mode in ("none", "full", "hotness"):
            cluster = Cluster(1, np.zeros(10, dtype=np.int64), seed=0)
            cfg = TrainConfig(dim=4, window=2, negatives=1, epochs=1,
                              sync_mode=mode)
            outs.append(DistributedTrainer(corpus, cluster, cfg)
                        .train().embeddings)
        np.testing.assert_array_equal(outs[0], outs[1])
        np.testing.assert_array_equal(outs[0], outs[2])
