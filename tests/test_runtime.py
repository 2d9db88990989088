"""Tests for the simulated runtime: messages, metrics, cluster, BSP."""

from __future__ import annotations

import numpy as np
import pytest

from repro.runtime import (
    Cluster,
    ClusterMetrics,
    CostModel,
    DeepWalkMessage,
    FullPathMessage,
    IncrementalMessage,
    Node2VecMessage,
    SyncMessage,
    message_size_ratio,
)

from oracles.walks import BSPEngine


class TestMessageSizes:
    """The paper's message-size analysis, byte for byte (§3.1, Example 1)."""

    def test_node2vec_constant_32_bytes(self):
        assert Node2VecMessage(1, 2, 3, 4).byte_size() == 32

    def test_deepwalk_constant_24_bytes(self):
        assert DeepWalkMessage(1, 2, 3).byte_size() == 24

    def test_fullpath_linear_in_length(self):
        for length in (0, 1, 10, 80):
            msg = FullPathMessage(1, length, 3, path=list(range(length)))
            assert msg.byte_size() == 24 + 8 * length

    def test_incremental_constant_80_bytes(self):
        msg = IncrementalMessage(1, 50, 3)
        assert msg.byte_size() == 80

    def test_example1_ratio_at_80(self):
        """Example 1: at L=80 one DistGER message is 8.3x smaller."""
        assert message_size_ratio(80) == pytest.approx(8.3)

    def test_sync_message_size(self):
        # 10 rows of 64 float32 + 8-byte ids.
        assert SyncMessage(10, 64).byte_size() == 10 * (64 * 4 + 8)


class TestClusterMetrics:
    def test_recording(self):
        m = ClusterMetrics(2)
        m.record_compute(0, 5.0)
        m.record_compute(1, 3.0)
        m.record_message(100)
        m.record_sync(50, n_messages=2)
        m.record_local_step(0, 4)
        assert m.total_compute == 8.0
        assert m.max_compute == 5.0
        assert m.messages_sent == 1
        assert m.message_bytes == 100
        assert m.sync_bytes == 50
        assert m.total_bytes == 150
        assert m.total_local_steps == 4

    def test_imbalance(self):
        m = ClusterMetrics(2)
        m.record_compute(0, 10.0)
        m.record_compute(1, 0.0)
        assert m.compute_imbalance == pytest.approx(2.0)

    def test_memory_peak(self):
        m = ClusterMetrics(1)
        m.record_memory(0, 100)
        m.record_memory(0, 50)
        assert m.peak_memory_bytes[0] == 100

    def test_merge(self):
        a, b = ClusterMetrics(2), ClusterMetrics(2)
        a.record_compute(0, 1.0)
        b.record_compute(0, 2.0)
        b.record_message(10)
        a.merge(b)
        assert a.compute_units[0] == 3.0
        assert a.messages_sent == 1

    def test_merge_size_mismatch(self):
        with pytest.raises(ValueError):
            ClusterMetrics(2).merge(ClusterMetrics(3))

    def test_invalid_machine_count(self):
        with pytest.raises(ValueError):
            ClusterMetrics(0)


class TestCostModel:
    def test_makespan_composition(self):
        m = ClusterMetrics(2)
        m.record_compute(0, 1000.0)
        m.record_message(1_000_000)
        cost = CostModel(compute_rate=1000.0, bandwidth=1e6, latency=0.0)
        assert cost.makespan(m) == pytest.approx(1.0 + 1.0)

    def test_more_machines_reduce_makespan(self):
        """Splitting the same work across machines cuts compute time."""
        cost = CostModel()
        small, large = ClusterMetrics(1), ClusterMetrics(4)
        small.record_compute(0, 8000.0)
        for i in range(4):
            large.record_compute(i, 2000.0)
        assert cost.makespan(large) < cost.makespan(small)


class TestCluster:
    def test_placement(self):
        c = Cluster(2, np.array([0, 1, 0, 1]), seed=0)
        assert c.machine_of(1) == 1
        np.testing.assert_array_equal(c.partition_sizes(), [2, 2])

    def test_invalid_assignment(self):
        with pytest.raises(ValueError):
            Cluster(2, np.array([0, 5]))

    @pytest.mark.parametrize("machines", (1, 2, 4))
    @pytest.mark.parametrize("make_seed, root", [
        (lambda: 7, 16920295385781661272),
        (lambda: np.random.SeedSequence(7), 16920295385781661272),
        (lambda: np.random.SeedSequence([7, 1]), 6635463128224577688),
        # The generator's first draw, at any machine count.
        (lambda: np.random.default_rng(7), 5765488047046174020),
    ], ids=["int", "seedsequence", "seedsequence-list", "generator"])
    def test_walk_seed_root_pinned(self, machines, make_seed, root):
        """Every corpus derives from this root, so it must never move --
        nor depend on the machine count."""
        assignment = np.zeros(4, dtype=np.int64)
        assert Cluster(machines, assignment,
                       seed=make_seed()).walk_seed_root == root


class TestBSPEngine:
    def test_items_run_to_completion(self):
        c = Cluster(2, np.array([0, 1]), seed=0)
        engine = BSPEngine(c)

        def advance(machine, item):
            # Each item hops to the other machine `item["hops"]` times.
            if item["hops"] == 0:
                return None
            item["hops"] -= 1
            return (1 - machine, item, 8)

        items = [(0, {"hops": 3}), (1, {"hops": 0})]
        stats = engine.run(items, advance)
        assert stats.items_completed == 2
        assert stats.messages_delivered == 3
        assert c.metrics.messages_sent == 3
        assert c.metrics.message_bytes == 24

    def test_non_terminating_raises(self):
        c = Cluster(2, np.array([0, 1]), seed=0)
        engine = BSPEngine(c)

        def forever(machine, item):
            return (1 - machine, item, 1)

        with pytest.raises(RuntimeError, match="converge"):
            engine.run([(0, {})], forever, max_supersteps=10)
