"""Tests for BSP superstep tracing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.runtime import Cluster

from oracles.walks import BSPEngine, SuperstepRecord


def _hop_n_times(n: int):
    """Item = remaining hop count; hops alternate machines, then stop."""

    def advance(machine, remaining):
        if remaining <= 0:
            return None
        return (1 - machine, remaining - 1, 8)

    return advance


class TestTracing:
    def test_disabled_by_default(self):
        cluster = Cluster(2, np.array([0, 1]), seed=0)
        engine = BSPEngine(cluster)
        engine.run([(0, 2)], _hop_n_times(2))
        assert engine.stats.trace is None

    def test_record_per_superstep(self):
        cluster = Cluster(2, np.array([0, 1]), seed=0)
        engine = BSPEngine(cluster, trace=True)
        stats = engine.run([(0, 3)], _hop_n_times(3))
        assert stats.trace is not None
        assert len(stats.trace) == stats.supersteps
        # Totals in the trace match the aggregate counters.
        assert sum(r.completed for r in stats.trace) == stats.items_completed
        assert sum(r.messages for r in stats.trace) == stats.messages_delivered

    def test_items_drain_monotonically(self):
        """With no fan-out, resident items can only shrink."""
        cluster = Cluster(2, np.array([0, 1]), seed=0)
        engine = BSPEngine(cluster, trace=True)
        seeds = [(0, 4), (0, 2), (1, 1)]
        stats = engine.run(
            seeds, lambda m, r: None if r <= 0 else (1 - m, r - 1, 8))
        active = [r.active_items for r in stats.trace]
        assert active[0] == len(seeds)
        assert all(a >= b for a, b in zip(active, active[1:]))

    def test_record_properties(self):
        record = SuperstepRecord(items_per_machine=[3, 1], completed=1,
                                 messages=2)
        assert record.active_items == 4
        assert record.machine_imbalance == pytest.approx(3 / 2.0)
        empty = SuperstepRecord(items_per_machine=[0, 0], completed=0,
                                messages=0)
        assert empty.machine_imbalance == 1.0

    def test_walk_engine_counters_unchanged_by_tracing(self, medium_graph):
        """The walk engine (which runs BSP untraced) is unaffected."""
        from repro.walks import DistributedWalkEngine, WalkConfig

        cluster = Cluster(2, np.arange(medium_graph.num_nodes) % 2, seed=0)
        result = DistributedWalkEngine(
            medium_graph, cluster, WalkConfig.distger(max_rounds=2)).run()
        assert result.corpus.num_walks > 0
        assert cluster.metrics.messages_sent > 0
