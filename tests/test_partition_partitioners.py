"""Tests for all partitioners: coverage, balance, quality relationships."""

from __future__ import annotations

import numpy as np
import pytest

import repro.partition as partition_pkg
from repro.graph import ring_of_cliques
from repro.partition import (
    ChunkPartitioner,
    FennelPartitioner,
    HashPartitioner,
    LDGPartitioner,
    MPGPPartitioner,
    MetisLikePartitioner,
    ParallelMPGPPartitioner,
    WorkloadBalancePartitioner,
    edge_cut,
    evaluate,
    expected_walk_locality,
    node_balance,
)

ALL_PARTITIONERS = [
    HashPartitioner(),
    ChunkPartitioner(),
    WorkloadBalancePartitioner(),
    LDGPartitioner(),
    FennelPartitioner(),
    MetisLikePartitioner(),
    MPGPPartitioner(),
    ParallelMPGPPartitioner(num_segments=2),
]


@pytest.mark.parametrize("partitioner", ALL_PARTITIONERS,
                         ids=lambda p: p.name)
class TestPartitionerContract:
    def test_covers_all_nodes(self, partitioner, medium_graph):
        res = partitioner.partition(medium_graph, 4)
        assert res.assignment.shape == (medium_graph.num_nodes,)
        assert res.assignment.min() >= 0
        assert res.assignment.max() < 4

    def test_single_part(self, partitioner, small_graph):
        res = partitioner.partition(small_graph, 1)
        assert np.all(res.assignment == 0)

    def test_balance_within_slack(self, partitioner, medium_graph):
        res = partitioner.partition(medium_graph, 4)
        # All schemes here target node or edge balance; allow generous
        # slack (MPGP's gamma=2 permits up to 2x mean).
        assert node_balance(res.assignment, 4) <= 2.5

    def test_rejects_bad_num_parts(self, partitioner, small_graph):
        with pytest.raises(ValueError):
            partitioner.partition(small_graph, 0)

    def test_deterministic(self, partitioner, medium_graph):
        a = partitioner.partition(medium_graph, 3).assignment
        b = partitioner.partition(medium_graph, 3).assignment
        np.testing.assert_array_equal(a, b)


EXPORTED_PARTITIONERS = [
    getattr(partition_pkg, name) for name in partition_pkg.__all__
    if name.endswith("Partitioner") and name != "Partitioner"]


@pytest.mark.parametrize("cls", EXPORTED_PARTITIONERS,
                         ids=lambda cls: cls.__name__)
class TestNumPartsBoundary:
    """``partition`` checks ``num_parts`` before any scheme runs, so
    every scheme rejects a non-integer (``bool`` included: list and
    ``range`` arithmetic would take ``True`` as one part) with the same
    ``ValueError``, and none returns a result carrying one."""

    @pytest.mark.parametrize("bad", [2.5, 2.0, True, False, "2", None])
    def test_non_integer_rejected(self, cls, bad, medium_graph):
        with pytest.raises(ValueError, match="num_parts"):
            cls().partition(medium_graph, bad)

    def test_numpy_integer_accepted(self, cls, medium_graph):
        a = cls().partition(medium_graph, np.int64(3))
        b = cls().partition(medium_graph, 3)
        assert a.num_parts == 3 and type(a.num_parts) is int
        np.testing.assert_array_equal(a.assignment, b.assignment)


class TestQualityRelationships:
    """Structural quality claims from the paper (§3.2, §6.5)."""

    def test_mpgp_beats_workload_balancing_on_locality(self, medium_graph):
        """The headline claim behind Fig. 10(c): MPGP keeps walkers local."""
        mpgp = MPGPPartitioner().partition(medium_graph, 4)
        bal = WorkloadBalancePartitioner().partition(medium_graph, 4)
        loc_mpgp = expected_walk_locality(medium_graph, mpgp.assignment)
        loc_bal = expected_walk_locality(medium_graph, bal.assignment)
        assert loc_mpgp > loc_bal * 1.2

    def test_mpgp_respects_cliques(self):
        """Cliques >> ring edges: MPGP's cut should be a fraction of the
        structure-blind workload-balancing cut (Fig. 13's γ=2 regime)."""
        g = ring_of_cliques(4, 8)
        mpgp_cut = edge_cut(g, MPGPPartitioner().partition(g, 4).assignment)
        bal_cut = edge_cut(
            g, WorkloadBalancePartitioner().partition(g, 4).assignment
        )
        assert mpgp_cut <= bal_cut / 3

    def test_metis_like_good_cut_on_cliques(self):
        g = ring_of_cliques(4, 8)
        res = MetisLikePartitioner().partition(g, 4)
        assert edge_cut(g, res.assignment) <= 10

    def test_gamma_one_is_stricter_than_gamma_ten(self, medium_graph):
        """Fig. 13: small gamma = strict balance, large gamma = skew."""
        strict = MPGPPartitioner(gamma=1.0).partition(medium_graph, 4)
        loose = MPGPPartitioner(gamma=10.0).partition(medium_graph, 4)
        assert node_balance(strict.assignment, 4) <= \
            node_balance(loose.assignment, 4) + 1e-9

    def test_evaluate_summary(self, medium_graph):
        res = MPGPPartitioner().partition(medium_graph, 4)
        q = evaluate(medium_graph, res.assignment, 4)
        assert 0.0 <= q.cut_fraction <= 1.0
        assert 0.0 <= q.expected_walk_locality <= 1.0
        assert q.edge_cut >= 0
        d = q.as_dict()
        assert d["num_parts"] == 4

    def test_workload_balancing_balances_edges(self, medium_graph):
        res = WorkloadBalancePartitioner().partition(medium_graph, 4)
        loads = res.edge_loads(medium_graph)
        assert loads.max() / max(1.0, loads.mean()) < 1.3


class TestParallelMPGP:
    def test_matches_graph_coverage(self, medium_graph):
        res = ParallelMPGPPartitioner(num_segments=3).partition(medium_graph, 4)
        assert np.all(res.assignment >= 0)
