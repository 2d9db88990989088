"""Tests for the distributed walk engine, termination rules and corpus."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from repro.graph import CSRGraph, ring_of_cliques
from repro.partition import MPGPPartitioner, WorkloadBalancePartitioner
from repro.runtime import Cluster
from repro.walks import (
    Corpus,
    DistributedWalkEngine,
    WalkConfig,
    WalkCountRule,
    WalkLengthRule,
)

from oracles.walks import IncrementalWalkMeasure, LoopWalkEngine, should_stop


def make_cluster(graph, machines=2, seed=0, partitioner=None):
    p = (partitioner or MPGPPartitioner()).partition(graph, machines)
    return Cluster(machines, p.assignment, seed=seed)


class TestWalkConfig:
    def test_presets(self):
        assert WalkConfig.distger().mode == "incom"
        assert WalkConfig.huge_d().mode == "fullpath"
        routine = WalkConfig.routine("deepwalk")
        assert routine.mode == "routine"
        assert routine.kernel == "deepwalk"

    def test_kernel_names_are_case_insensitive(self):
        """A mixed-case name is the lower-case kernel, parameters and all
        (not a node2vec silently run at p = q = 1)."""
        graph = ring_of_cliques(3, 4)

        def corpus(**kwargs):
            cfg = WalkConfig.routine(walk_length=12, walks_per_node=2,
                                     **kwargs)
            return DistributedWalkEngine(graph, make_cluster(graph),
                                         cfg).run().corpus

        mixed = corpus(kernel="Node2Vec", p=0.25, q=4.0)
        assert WalkConfig(kernel="Node2Vec").kernel == "node2vec"
        np.testing.assert_array_equal(
            mixed.tokens, corpus(kernel="node2vec", p=0.25, q=4.0).tokens)
        assert not np.array_equal(mixed.tokens,
                                  corpus(kernel="node2vec").tokens)

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            WalkConfig(mode="magic")

    @pytest.mark.parametrize("kwargs,match", (
        (dict(min_length=5, max_length=3), "max_length 3 < min_length 5"),
        (dict(max_length=0), "max_length 0 < min_length"),
        (dict(min_length=0), "min_length"),
        (dict(max_rounds=0), "max_rounds 0 < min_rounds"),
        (dict(min_rounds=0), "min_rounds"),
        (dict(mu=float("nan")), "mu"),
        (dict(mu=1.5), "mu"),
        (dict(delta=0.0), "delta"),
        (dict(mode="routine", walk_length=0), "walk_length"),
        (dict(mode="routine", walks_per_node=0), "walks_per_node"),
        (dict(walk_length=-3), "walk_length"),
    ))
    def test_unrunnable_config_rejected_at_construction(self, kwargs, match):
        """Everything ``run()`` would trip over later -- inside the
        length/count rules, or as an IndexError / a silently empty corpus
        in routine mode -- fails when the config is built."""
        with pytest.raises(ValueError, match=match):
            WalkConfig(**kwargs)

    def test_boundary_values_accepted(self):
        WalkConfig(min_length=1, max_length=1, min_rounds=1, max_rounds=1,
                   mu=0.0, walk_length=1, walks_per_node=1)
        WalkConfig(mu=1.0)


class TestCorpus:
    def test_add_and_occurrences(self):
        c = Corpus(5)
        c.add_walk([0, 1, 1, 2])
        c.add_walk([2, 3])
        np.testing.assert_array_equal(c.occurrences, [1, 2, 2, 1, 0])
        assert c.num_walks == 2
        assert c.total_tokens == 6
        assert c.average_walk_length == 3.0

    def test_out_of_range_rejected(self):
        c = Corpus(3)
        with pytest.raises(ValueError):
            c.add_walk([0, 5])

    def test_empty_walk_ignored(self):
        c = Corpus(3)
        c.add_walk([])
        assert c.num_walks == 0

    def test_merge(self):
        a, b = Corpus(4), Corpus(4)
        a.add_walk([0, 1])
        b.add_walk([2, 3])
        a.merge(b)
        assert a.num_walks == 2
        assert a.total_tokens == 4

    def test_merge_size_mismatch(self):
        with pytest.raises(ValueError):
            Corpus(3).merge(Corpus(4))

    def test_kl_divergence_finite(self):
        c = Corpus(4)
        c.add_walk([0, 1, 2, 3])
        kl = c.kl_from_degree_distribution(np.array([1, 2, 3, 4]))
        assert np.isfinite(kl)

    def test_save_load_roundtrip(self, tmp_path):
        c = Corpus(5)
        c.add_walk([0, 1, 1, 2])
        c.add_walk([4, 3])
        path = str(tmp_path / "corpus.txt")
        c.save(path)
        loaded = Corpus.load(path)
        assert loaded.num_nodes == 5
        assert loaded.num_walks == 2
        np.testing.assert_array_equal(loaded.occurrences, c.occurrences)
        for a, b in zip(loaded.walks, c.walks):
            np.testing.assert_array_equal(a, b)

    def test_load_rejects_headerless(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1 2\n")
        with pytest.raises(ValueError, match="header"):
            Corpus.load(str(path))


class TestTerminationRules:
    def test_length_rule_bounds(self):
        rule = WalkLengthRule(mu=0.9, min_length=3, max_length=5)
        m = IncrementalWalkMeasure()
        m.observe(0)
        assert not should_stop(rule, m)  # below min length
        for node in [1, 2, 3, 4]:
            m.observe(node)
        assert should_stop(rule, m)  # at max length

    def test_length_rule_validation(self):
        with pytest.raises(ValueError):
            WalkLengthRule(mu=1.5)
        with pytest.raises(ValueError):
            WalkLengthRule(max_length=2, min_length=5)

    def test_count_rule_stops_on_converged_kl(self):
        rule = WalkCountRule(delta=1e9, min_rounds=2, max_rounds=10)
        c = Corpus(3)
        degrees = np.array([2, 2, 2])
        c.add_walk([0, 1, 2])
        assert not rule.observe_round(c, degrees)  # round 1: min not met
        c.add_walk([0, 1, 2])
        assert rule.observe_round(c, degrees)      # huge delta always stops

    def test_count_rule_max_rounds(self):
        rule = WalkCountRule(delta=1e-12, min_rounds=1, max_rounds=3)
        c = Corpus(3)
        degrees = np.array([1, 2, 3])
        # The corpus keeps shifting between rounds, so the KL keeps moving
        # and only the max_rounds cap can stop the loop.
        c.add_walk([0, 1, 2])
        assert not rule.observe_round(c, degrees)
        c.add_walk([0, 0, 0])
        assert not rule.observe_round(c, degrees)
        c.add_walk([1, 1, 1])
        assert rule.observe_round(c, degrees)  # hits max_rounds
        assert len(rule.kl_trace) == 3


class TestEngine:
    def test_routine_walk_lengths_fixed(self, small_graph):
        cluster = make_cluster(small_graph)
        cfg = WalkConfig.routine("deepwalk", walk_length=12, walks_per_node=2)
        result = DistributedWalkEngine(small_graph, cluster, cfg).run()
        assert result.stats.rounds == 2
        assert all(l == 12 for l in result.stats.walk_lengths)
        assert result.corpus.num_walks == 2 * small_graph.num_nodes

    def test_info_walks_within_bounds(self, medium_graph):
        cluster = make_cluster(medium_graph)
        cfg = WalkConfig.distger(min_length=4, max_length=30, max_rounds=2,
                                 min_rounds=1)
        result = DistributedWalkEngine(medium_graph, cluster, cfg).run()
        assert all(4 <= l <= 30 for l in result.stats.walk_lengths)
        assert result.stats.rounds <= 2

    def test_walks_start_at_sources(self, small_graph):
        cluster = make_cluster(small_graph)
        cfg = WalkConfig.routine("deepwalk", walk_length=5, walks_per_node=1)
        result = DistributedWalkEngine(small_graph, cluster, cfg).run()
        starts = sorted(int(w[0]) for w in result.corpus.walks)
        assert starts == list(range(small_graph.num_nodes))

    def test_walks_follow_edges(self, small_graph):
        cluster = make_cluster(small_graph)
        cfg = WalkConfig.distger(max_rounds=1, min_rounds=1)
        result = DistributedWalkEngine(small_graph, cluster, cfg).run()
        for walk in result.corpus.walks:
            for a, b in zip(walk[:-1], walk[1:]):
                assert small_graph.has_edge(int(a), int(b))

    def test_messages_counted_on_machine_crossing(self, small_graph):
        cluster = make_cluster(small_graph, machines=2)
        cfg = WalkConfig.routine("deepwalk", walk_length=20, walks_per_node=1)
        DistributedWalkEngine(small_graph, cluster, cfg).run()
        # A ring of cliques split across 2 machines must cross sometimes.
        assert cluster.metrics.messages_sent > 0
        assert cluster.metrics.message_bytes == \
            cluster.metrics.messages_sent * 24  # deepwalk message size

    def test_single_machine_no_messages(self, small_graph):
        p = np.zeros(small_graph.num_nodes, dtype=np.int64)
        cluster = Cluster(1, p, seed=0)
        cfg = WalkConfig.distger(max_rounds=1, min_rounds=1)
        DistributedWalkEngine(small_graph, cluster, cfg).run()
        assert cluster.metrics.messages_sent == 0

    def test_incom_messages_constant_80(self, small_graph):
        cluster = make_cluster(small_graph, machines=2)
        cfg = WalkConfig.distger(max_rounds=1, min_rounds=1)
        DistributedWalkEngine(small_graph, cluster, cfg).run()
        m = cluster.metrics
        if m.messages_sent:
            assert m.message_bytes == m.messages_sent * 80

    def test_fullpath_messages_exceed_incom(self, medium_graph):
        """HuGE-D messages are linear in walk length; InCoM constant."""
        c1 = make_cluster(medium_graph, machines=4, seed=3)
        DistributedWalkEngine(
            medium_graph, c1, WalkConfig.distger(max_rounds=1, min_rounds=1)
        ).run()
        c2 = make_cluster(medium_graph, machines=4, seed=3)
        DistributedWalkEngine(
            medium_graph, c2, WalkConfig.huge_d(max_rounds=1, min_rounds=1)
        ).run()
        bytes_per_msg_incom = c1.metrics.message_bytes / max(1, c1.metrics.messages_sent)
        bytes_per_msg_full = c2.metrics.message_bytes / max(1, c2.metrics.messages_sent)
        assert bytes_per_msg_incom == pytest.approx(80.0)
        assert bytes_per_msg_full > bytes_per_msg_incom

    def test_mpgp_fewer_messages_than_balance(self, medium_graph):
        """Fig. 10(c): proximity-aware partitioning cuts walker traffic."""
        cfg = WalkConfig.routine("deepwalk", walk_length=20, walks_per_node=2)
        c_mpgp = make_cluster(medium_graph, machines=4, seed=5)
        DistributedWalkEngine(medium_graph, c_mpgp, cfg).run()
        c_bal = make_cluster(medium_graph, machines=4, seed=5,
                             partitioner=WorkloadBalancePartitioner())
        DistributedWalkEngine(medium_graph, c_bal, cfg).run()
        assert c_mpgp.metrics.messages_sent < c_bal.metrics.messages_sent

    def test_dead_end_terminates_walk(self):
        # Directed path: 0 -> 1 -> 2; node 2 is a dead end.
        g = CSRGraph.from_edges([(0, 1), (1, 2)], directed=True)
        cluster = Cluster(1, np.zeros(3, dtype=np.int64), seed=0)
        cfg = WalkConfig.routine("deepwalk", walk_length=50, walks_per_node=1)
        result = DistributedWalkEngine(g, cluster, cfg).run()
        # Walks from 0 and 1 stop at node 2 before reaching length 50.
        assert max(result.stats.walk_lengths) <= 3

    @pytest.mark.parametrize("engine_cls", (
        pytest.param(DistributedWalkEngine, id="vectorized"),
        pytest.param(LoopWalkEngine, id="loop")))
    @pytest.mark.parametrize("bad,match", (
        ([40], "outside the graph"),       # == num_nodes
        ([-1], "outside the graph"),       # would wrap to node n-1
        ([0, 3, 41], "outside the graph"),
        ([0.5], "integer node ids"),       # astype would truncate to 0
        ([1.0, 2.0], "integer node ids"),
        ([True, False], "integer node ids"),
    ))
    def test_bad_sources_rejected_before_any_walk(self, small_graph,
                                                  engine_cls, bad, match):
        engine = engine_cls(
            small_graph, make_cluster(small_graph),
            WalkConfig.distger(max_rounds=1, min_rounds=1))
        with pytest.raises(ValueError, match=match):
            engine.run(sources=bad)
        # Nothing was sampled or charged before the refusal.
        assert engine.cluster.metrics.total_compute == 0.0

    def test_integer_sources_of_any_width_accepted(self, small_graph):
        engine = DistributedWalkEngine(
            small_graph, make_cluster(small_graph),
            WalkConfig.distger(max_rounds=1, min_rounds=1))
        ref = engine.run(sources=[0, 39, 7])
        again = DistributedWalkEngine(
            small_graph, make_cluster(small_graph),
            WalkConfig.distger(max_rounds=1, min_rounds=1),
        ).run(sources=np.array([0, 39, 7], dtype=np.uint8))
        assert [w[0] for w in ref.corpus.walks] == [0, 39, 7]
        for a, b in zip(ref.corpus.walks, again.corpus.walks):
            np.testing.assert_array_equal(a, b)
        assert engine.run(sources=[]).corpus.num_walks == 0

    def test_assignment_size_mismatch_rejected(self, small_graph):
        cluster = Cluster(2, np.zeros(3, dtype=np.int64), seed=0)
        with pytest.raises(ValueError, match="cover"):
            DistributedWalkEngine(small_graph, cluster, WalkConfig.distger())

    def test_deterministic_given_seed(self, small_graph):
        results = []
        for _ in range(2):
            cluster = make_cluster(small_graph, machines=2, seed=9)
            cfg = WalkConfig.distger(max_rounds=1, min_rounds=1)
            r = DistributedWalkEngine(small_graph, cluster, cfg).run()
            results.append([tuple(w) for w in r.corpus.walks])
        assert results[0] == results[1]

    def test_deterministic_given_seed_all_backends(self, small_graph):
        """Byte-identical corpora for the same seed on the lock-step
        engine and on the per-walker loop oracle."""
        for engine_cls in (DistributedWalkEngine, LoopWalkEngine):
            results = []
            for _ in range(2):
                cluster = make_cluster(small_graph, machines=2, seed=9)
                cfg = WalkConfig.distger(max_rounds=1, min_rounds=1)
                r = engine_cls(small_graph, cluster, cfg).run()
                results.append([w.tobytes() for w in r.corpus.walks])
            assert results[0] == results[1], engine_cls

    @pytest.mark.parametrize("mode", ("incom", "routine", "fullpath"))
    def test_every_mode_runs_the_rounds(self, small_graph, mode):
        """One engine: every mode, HuGE-D's fullpath included, runs the
        lock-step rounds -- the mode picks only the measurement."""
        cfg = WalkConfig(mode=mode, max_rounds=1, min_rounds=1,
                         walks_per_node=1)
        with mock.patch.object(DistributedWalkEngine, "_run_rounds",
                               autospec=True,
                               side_effect=DistributedWalkEngine._run_rounds
                               ) as rounds:
            result = DistributedWalkEngine(
                small_graph, make_cluster(small_graph), cfg).run()
        rounds.assert_called_once()
        assert result.stats.total_walks == small_graph.num_nodes
