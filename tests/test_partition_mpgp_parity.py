"""Reference parity: MPGP's per-arc table vs on-demand galloping.

The partitioners score PF2 from the precomputed per-arc common-neighbour
table (the same pass behind ``HuGEKernel.arc_acceptance_table``); the
oracle in :mod:`oracles.partition` gallops each placed neighbour on
demand.  Both must produce **byte-identical** node→machine assignments
(and therefore identical balance/edge-cut metrics) on every graph family,
for both the sequential and the parallel partitioner, and the segment
merge's vectorized affinity must equal the per-node loop.  Property tests
pin the γ-slack balance bound, fixed-seed determinism and construction-
time validation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import CSRGraph, powerlaw_cluster, ring_of_cliques, star
from repro.graph.generators import rmat
from repro.partition import (
    MPGPPartitioner,
    ParallelMPGPPartitioner,
    PartitionConfig,
    evaluate,
)
from repro.partition.mpgp import (
    _mpgp_stream,
    _segment_affinity,
    merge_segments,
)
from repro.partition.streaming_orders import get_order
from repro.walks.kernels import common_neighbor_counts_per_arc

from oracles.partition import (
    GallopingMPGPPartitioner,
    GallopingParallelMPGPPartitioner,
    mpgp_stream_galloping,
    segment_affinity_loop,
)


def graph_family(kind):
    if kind == "undirected":
        return powerlaw_cluster(250, attach=4, triangle_prob=0.4, seed=2)
    if kind == "weighted":
        return powerlaw_cluster(180, attach=3, seed=3).with_random_weights(
            np.random.default_rng(4))
    if kind == "directed":
        return powerlaw_cluster(180, attach=3, triangle_prob=0.3,
                                seed=5).as_directed()
    raise KeyError(kind)


GRAPHS = ("undirected", "weighted", "directed")
#: γ < 1 reaches the "no eligible partition" fallback (every τ ≤ 0),
#: γ = 7 lets structure pile nodes onto one part.
GAMMAS = (0.5, 1.0, 2.0, 7.0)


class TestBackendParity:
    @pytest.mark.parametrize("gamma", GAMMAS)
    @pytest.mark.parametrize("num_parts", (2, 4, 7))
    @pytest.mark.parametrize("kind", GRAPHS)
    def test_sequential_assignments_identical(self, kind, num_parts, gamma):
        graph = graph_family(kind)
        loop = GallopingMPGPPartitioner(gamma=gamma).partition(graph,
                                                               num_parts)
        vec = MPGPPartitioner(gamma=gamma).partition(graph, num_parts)
        np.testing.assert_array_equal(loop.assignment, vec.assignment)

    @pytest.mark.parametrize("gamma", GAMMAS)
    @pytest.mark.parametrize("kind", GRAPHS)
    def test_parallel_assignments_identical(self, kind, gamma):
        graph = graph_family(kind)
        loop = GallopingParallelMPGPPartitioner(gamma=gamma).partition(
            graph, 4)
        vec = ParallelMPGPPartitioner(gamma=gamma).partition(graph, 4)
        np.testing.assert_array_equal(loop.assignment, vec.assignment)

    @pytest.mark.parametrize("weighted", (False, True),
                             ids=("unweighted", "weighted"))
    def test_ledger_shape_stream(self, weighted):
        """The benchmark's shape scaled down: a heavy-tailed R-MAT graph
        (2^11 nodes, dead-end rows), the DFS+degree stream, 4 parts."""
        graph = rmat(scale=11, edge_factor=8, seed=11)
        if weighted:
            graph = graph.with_random_weights(np.random.default_rng(12))
        stream = get_order("dfs+degree", graph, 0)
        np.testing.assert_array_equal(
            _mpgp_stream(graph, stream, 4, 2.0,
                         common_neighbor_counts_per_arc(graph)),
            mpgp_stream_galloping(graph, stream, 4, 2.0))

    @pytest.mark.parametrize("kind", GRAPHS)
    def test_quality_metrics_identical(self, kind):
        graph = graph_family(kind)
        metrics = {}
        for name, cls in (("loop", GallopingMPGPPartitioner),
                          ("vectorized", MPGPPartitioner)):
            result = cls().partition(graph, 4)
            metrics[name] = evaluate(graph, result.assignment, 4).as_dict()
        assert metrics["loop"] == metrics["vectorized"]

    def test_streaming_orders_all_match(self, medium_graph):
        for order in ("dfs+degree", "bfs+degree", "random"):
            loop = GallopingMPGPPartitioner(order=order, seed=7).partition(
                medium_graph, 3)
            vec = MPGPPartitioner(order=order, seed=7).partition(
                medium_graph, 3)
            np.testing.assert_array_equal(loop.assignment, vec.assignment)

    def test_star_and_tiny_graphs(self):
        for graph in (star(12), ring_of_cliques(3, 4),
                      CSRGraph.from_edges([(0, 1), (1, 2)], num_nodes=4)):
            loop = GallopingMPGPPartitioner().partition(graph, 2)
            vec = MPGPPartitioner().partition(graph, 2)
            np.testing.assert_array_equal(loop.assignment, vec.assignment)

    def test_arc_table_matches_galloping(self, medium_graph):
        """The partitioners' table is the exact quantity the oracle
        gallops -- and the same one the HuGE kernel precomputes."""
        from repro.partition.galloping import galloping_intersect_size

        table = common_neighbor_counts_per_arc(medium_graph)
        rng = np.random.default_rng(0)
        arcs = rng.integers(0, medium_graph.num_stored_edges, size=50)
        src = np.repeat(np.arange(medium_graph.num_nodes),
                        medium_graph.degrees)
        for arc in arcs:
            u, v = int(src[arc]), int(medium_graph.indices[arc])
            assert table[arc] == galloping_intersect_size(
                medium_graph.neighbors(u), medium_graph.neighbors(v))


class TestProperties:
    @pytest.mark.parametrize("num_parts", (2, 4))
    def test_balance_bound_respected(self, num_parts):
        """γ-slack: no machine exceeds γ · (n / num_parts) + 1 nodes."""
        graph = powerlaw_cluster(300, attach=4, seed=8)
        for cls in (GallopingMPGPPartitioner, MPGPPartitioner):
            result = cls(gamma=2.0).partition(graph, num_parts)
            bound = 2.0 * graph.num_nodes / num_parts + 1
            assert result.sizes().max() <= bound

    def test_deterministic_under_fixed_seed(self):
        graph = powerlaw_cluster(200, attach=3, seed=9)
        for cls in (MPGPPartitioner, ParallelMPGPPartitioner):
            a = cls(seed=3).partition(graph, 4).assignment
            b = cls(seed=3).partition(graph, 4).assignment
            np.testing.assert_array_equal(a, b)

    def test_every_node_assigned(self, medium_graph):
        for cls in (GallopingMPGPPartitioner, MPGPPartitioner):
            result = cls().partition(medium_graph, 5)
            assert result.assignment.min() >= 0
            assert result.assignment.max() < 5


def assert_merge_affinities_match(graph, segments, seg_parts, num_parts):
    """At every step of the merge -- each segment against the machines
    the segments before it were merged onto -- the vectorized affinity
    equals the per-node loop's; returns the merged assignment."""
    for k in range(len(segments)):
        final = np.full(graph.num_nodes, -1, dtype=np.int64)
        if k:
            merged = merge_segments(graph, segments[:k], seg_parts[:k],
                                    num_parts, 2.0)
            seen = np.concatenate(segments[:k])
            final[seen] = merged[seen]
        np.testing.assert_array_equal(
            _segment_affinity(graph, segments[k], seg_parts[k], final,
                              num_parts),
            segment_affinity_loop(graph, segments[k], seg_parts[k], final,
                                  num_parts))
    return merge_segments(graph, segments, seg_parts, num_parts, 2.0)


class TestMergeParity:
    """The vectorized segment-merge affinity equals the per-node loop.

    The merge is one CSR gather + bincount per segment.  Every affinity
    increment is the integer 1.0, so the two computations are equal in
    any accumulation order -- including at the 10^5-node scale where a
    per-node loop would serialize the parallel partitioner.
    """

    def test_merge_parity_on_real_segments(self):
        graph = powerlaw_cluster(300, attach=4, triangle_prob=0.3, seed=8)
        stream = get_order("bfs+degree", graph, 0)
        segments = [s for s in np.array_split(stream, 4) if s.size]
        arc_cm = common_neighbor_counts_per_arc(graph)
        seg_parts = [_mpgp_stream(graph, s, 4, 2.0, arc_cm)[s]
                     for s in segments]
        assert_merge_affinities_match(graph, segments, seg_parts, 4)

    def test_merge_parity_at_1e5_nodes(self):
        """131072-node R-MAT graph: the affinities of synthetic (but
        full-coverage) segment labelings are byte-identical between the
        vectorized and loop computation at every merge step, for a
        skewed-degree graph with dead-end rows."""
        graph = rmat(scale=17, edge_factor=4, seed=6)
        rng = np.random.default_rng(0)
        stream = rng.permutation(graph.num_nodes).astype(np.int64)
        segments = [s for s in np.array_split(stream, 4) if s.size]
        seg_parts = [rng.integers(0, 4, size=s.size, dtype=np.int64)
                     for s in segments]
        merged = assert_merge_affinities_match(graph, segments, seg_parts, 4)
        assert merged.min() >= 0 and merged.max() < 4


class TestConfig:
    @pytest.mark.parametrize("order", ["bogus", "", None, 3])
    def test_unknown_order_rejected_at_construction(self, order):
        for cls in (PartitionConfig, MPGPPartitioner,
                    ParallelMPGPPartitioner):
            with pytest.raises(ValueError, match="streaming order") as err:
                cls(order=order)
            assert "dfs+degree" in str(err.value)  # the options are listed

    def test_order_is_case_insensitive_like_get_order(self, medium_graph):
        a = MPGPPartitioner(order="DFS+Degree").partition(medium_graph, 3)
        b = MPGPPartitioner(order="dfs+degree").partition(medium_graph, 3)
        np.testing.assert_array_equal(a.assignment, b.assignment)

    @pytest.mark.parametrize("segments", [2.5, 2.0, True, "4"])
    def test_num_segments_must_be_an_integer(self, segments):
        with pytest.raises(ValueError, match="num_segments"):
            PartitionConfig(num_segments=segments)
        with pytest.raises(ValueError, match="num_segments"):
            ParallelMPGPPartitioner(num_segments=segments)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_gamma_rejected(self, bad):
        """``nan <= 0`` is False: the slack must be checked for finiteness."""
        with pytest.raises(ValueError, match="gamma"):
            PartitionConfig(gamma=bad)
        with pytest.raises(ValueError, match="gamma"):
            MPGPPartitioner(gamma=bad)

    def test_from_config(self):
        cfg = PartitionConfig(gamma=1.5, order="bfs+degree", seed=4,
                              num_segments=3)
        seq = MPGPPartitioner.from_config(cfg)
        assert (seq.gamma, seq.order, seq.seed) == (1.5, "bfs+degree", 4)
        par = ParallelMPGPPartitioner.from_config(cfg)
        assert (par.gamma, par.order, par.seed, par.num_segments) == \
            (1.5, "bfs+degree", 4, 3)

    def test_config_equivalent_to_kwargs(self, medium_graph):
        cfg = PartitionConfig(gamma=1.8, order="dfs+degree", seed=2)
        a = MPGPPartitioner.from_config(cfg).partition(medium_graph, 3)
        b = MPGPPartitioner(gamma=1.8, order="dfs+degree",
                            seed=2).partition(medium_graph, 3)
        np.testing.assert_array_equal(a.assignment, b.assignment)
