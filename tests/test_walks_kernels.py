"""Tests for the transition kernels (DeepWalk, node2vec, HuGE, HuGE+)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import CSRGraph, powerlaw_cluster, ring_of_cliques, rmat, star
from repro.partition.galloping import galloping_intersect_size
from repro.walks import (
    DeepWalkKernel,
    HuGEKernel,
    HuGEPlusKernel,
    Node2VecKernel,
    make_kernel,
)
from repro.walks.kernels import _reverse_arcs, common_neighbor_counts_per_arc


class TestDeepWalk:
    def test_uniform_choice(self, small_graph, rng):
        k = DeepWalkKernel(small_graph)
        nbrs = set(int(x) for x in small_graph.neighbors(0))
        for _ in range(50):
            nxt = k.step(0, -1, rng)
            assert nxt in nbrs

    def test_weighted_choice_respects_weights(self, rng):
        g = CSRGraph.from_edges([(0, 1), (0, 2)], weights=[100.0, 1.0])
        k = DeepWalkKernel(g)
        picks = [k.step(0, -1, rng) for _ in range(300)]
        assert picks.count(1) > picks.count(2) * 5

    def test_isolated_node_raises(self):
        g = CSRGraph.from_edges([(0, 1)], num_nodes=3)
        with pytest.raises(ValueError, match="no neighbours"):
            DeepWalkKernel(g).step(2, -1, np.random.default_rng(0))


class TestNode2Vec:
    def test_accepts_valid_params(self, small_graph):
        k = Node2VecKernel(small_graph, p=0.5, q=2.0)
        assert k._envelope == pytest.approx(2.0)

    def test_rejects_bad_params(self, small_graph):
        with pytest.raises(ValueError):
            Node2VecKernel(small_graph, p=0.0)

    def test_pi_classification(self, triangle):
        k = Node2VecKernel(triangle, p=4.0, q=0.25)
        # Return to previous node: 1/p.
        assert k._pi(1, 1) == pytest.approx(0.25)
        # Distance-1 (candidate adjacent to previous): 1.
        assert k._pi(1, 2) == pytest.approx(1.0)
        # First step (no previous): first-order.
        assert k._pi(-1, 2) == pytest.approx(1.0)

    def test_pi_distance_two(self):
        g = CSRGraph.from_edges([(0, 1), (1, 2)])  # path: 0-1-2
        k = Node2VecKernel(g, p=1.0, q=0.5)
        # Walker at 1 came from 0; candidate 2 is not adjacent to 0: 1/q.
        assert k._pi(0, 2) == pytest.approx(2.0)

    def test_p1_q1_never_rejects(self, small_graph, rng):
        k = Node2VecKernel(small_graph, p=1.0, q=1.0)
        for _ in range(50):
            assert k.step(0, 1, rng) is not None

    def test_small_q_prefers_outward(self, rng):
        # Star-of-paths: from center, q << 1 favours DFS-like moves.
        k_dfs = Node2VecKernel(ring_of_cliques(4, 6), p=1.0, q=0.25)
        accepted = sum(k_dfs.step(0, 1, rng) is not None for _ in range(200))
        assert 0 < accepted <= 200


class TestHuGE:
    def test_acceptance_probability_bounds(self, medium_graph):
        k = HuGEKernel(medium_graph)
        for u in range(0, medium_graph.num_nodes, 29):
            for v in medium_graph.neighbors(u)[:3]:
                p = k.acceptance_probability(u, int(v))
                assert 0.0 <= p <= 1.0

    def test_eq3_manual_example(self):
        # Path 0-1-2 plus edge 0-2 makes a triangle: deg all 2, Cm(0,1)=1
        # (node 2).  alpha = max(1,1)/(2-1) = 1; P = tanh(1).
        g = CSRGraph.from_edges([(0, 1), (1, 2), (0, 2)])
        k = HuGEKernel(g)
        assert k.acceptance_probability(0, 1) == pytest.approx(np.tanh(1.0))

    def test_full_overlap_accepts(self):
        # Star: hub 0 adjacent to all leaves; leaf-leaf edges absent.
        # For (leaf u, hub v): deg u =1, Cm=0, ratio=deg v -> alpha=deg v.
        g = star(5)
        k = HuGEKernel(g)
        p = k.acceptance_probability(1, 0)
        assert p == pytest.approx(np.tanh(5.0))

    def test_denominator_zero_guard(self):
        # K4: deg 3 each, Cm(u,v)=2: denominator 1; now a clique where
        # deg(u) == Cm would need overlap == degree -- build explicitly:
        # nodes 0,1 adjacent; both also adjacent to 2,3; 0 additionally
        # has no other edges: deg(0)=3, Cm(0,1)=2 -> fine.  Use the
        # analytic guard directly instead:
        g = CSRGraph.from_edges([(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])
        k = HuGEKernel(g)
        # deg(0)=3, N(0)={1,2,3}; N(1)={0,2,3}; Cm=2 -> denom 1.
        assert k.acceptance_probability(0, 1) <= 1.0

    def test_weighted_graph_scales_alpha(self):
        g_unw = CSRGraph.from_edges([(0, 1), (1, 2), (0, 2)])
        g_w = CSRGraph.from_edges([(0, 1), (1, 2), (0, 2)],
                                  weights=[3.0, 1.0, 1.0])
        p_unw = HuGEKernel(g_unw).acceptance_probability(0, 1)
        p_w = HuGEKernel(g_w).acceptance_probability(0, 1)
        assert p_w > p_unw

    def test_step_returns_neighbor_or_none(self, medium_graph, rng):
        k = HuGEKernel(medium_graph)
        nbrs = set(int(x) for x in medium_graph.neighbors(5))
        outcomes = {k.step(5, -1, rng) for _ in range(100)}
        outcomes.discard(None)
        assert outcomes <= nbrs


class TestHuGEPlus:
    def test_boosts_high_degree_candidates(self, medium_graph):
        base = HuGEKernel(medium_graph)
        plus = HuGEPlusKernel(medium_graph)
        hub = int(np.argmax(medium_graph.degrees))
        for u in medium_graph.neighbors(hub)[:5]:
            assert plus.acceptance_probability(int(u), hub) >= \
                base.acceptance_probability(int(u), hub) - 1e-12


def scalar_arc_table(kernel) -> np.ndarray:
    """``acceptance_probability`` called once per stored arc."""
    graph = kernel.graph
    src = np.repeat(np.arange(graph.num_nodes), graph.degrees)
    return np.array([kernel.acceptance_probability(int(u), int(v))
                     for u, v in zip(src, graph.indices)], dtype=np.float64)


TABLE_GRAPHS = {
    "unweighted": lambda: rmat(7, edge_factor=6, seed=2),
    "weighted": lambda: powerlaw_cluster(150, attach=4, seed=1)
    .with_random_weights(np.random.default_rng(8)),
    # 5 and 6 have no out-arcs: (3,5), (4,6), (0,6) end on degree zero.
    "directed": lambda: CSRGraph.from_edges(
        [(0, 1), (1, 2), (2, 0), (0, 3), (3, 1), (3, 5), (4, 6), (4, 0),
         (0, 6), (2, 4)], num_nodes=7, directed=True),
    "weighted-directed": lambda: CSRGraph.from_edges(
        [(0, 1), (1, 2), (2, 0), (0, 3), (3, 1), (3, 5), (2, 4)],
        weights=[0.3, 2.5, 1e-3, 40.0, 1.0, 7.0, 0.25], num_nodes=6,
        directed=True),
}


class TestArcAcceptanceTable:
    """The array-built table is the scalar reference, bit for bit."""

    @pytest.mark.parametrize("name", ("huge", "huge+"))
    @pytest.mark.parametrize("family", sorted(TABLE_GRAPHS))
    def test_equals_per_arc_scalar_loop(self, family, name):
        graph = TABLE_GRAPHS[family]()
        table = make_kernel(name, graph).arc_acceptance_table()
        assert table.dtype == np.float64
        assert table.shape == (graph.num_stored_edges,)
        # A fresh kernel: the scalar path must not lean on table state.
        np.testing.assert_array_equal(
            table, scalar_arc_table(make_kernel(name, graph)))

    @pytest.mark.parametrize("name", ("huge", "huge+"))
    def test_zero_degree_endpoint(self, name):
        graph = TABLE_GRAPHS["directed"]()
        kernel = make_kernel(name, graph)
        table = kernel.arc_acceptance_table()
        dead = np.flatnonzero(graph.degrees[graph.indices] == 0)
        scalar = [kernel.acceptance_probability(u, v)
                  for u, v in ((0, 6), (3, 5), (4, 6))]   # arc order
        # HuGE accepts a hop onto a dead end outright; HuGE+ rescales it.
        if name == "huge":
            assert scalar == [1.0, 1.0, 1.0]
        assert table[dead].tolist() == scalar

    @pytest.mark.parametrize("name", ("huge", "huge+"))
    def test_nonpositive_denominator_arc(self, name):
        """``deg u − Cm <= 0`` cannot arise on a simple graph (v itself
        is in N(u) and never in N(v)), so forge the shared counts: the
        guard both paths carry must still agree."""
        graph = CSRGraph.from_edges([(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])
        forged = np.zeros(graph.num_stored_edges, dtype=np.int64)
        forged[0] = 3                    # arc (0, 1): deg 0 == 3 == Cm
        forged[1] = 5                    # arc (0, 2): Cm > deg
        graph.__dict__["_arc_common_neighbors"] = forged
        kernel = make_kernel(name, graph)
        kernel._cm_cache.update({0 * 4 + 1: 3, 0 * 4 + 2: 5})
        table = kernel.arc_acceptance_table()
        if name == "huge":
            assert table[0] == table[1] == 1.0
        np.testing.assert_array_equal(table[:2], scalar_arc_table(kernel)[:2])

    def test_table_is_cached(self, small_graph):
        kernel = HuGEKernel(small_graph)
        assert kernel.arc_acceptance_table() is kernel.arc_acceptance_table()


def arc_sources(graph) -> np.ndarray:
    return np.repeat(np.arange(graph.num_nodes, dtype=np.int64),
                     graph.degrees)


def galloping_counts(graph) -> np.ndarray:
    """One ``galloping_intersect_size`` call per stored arc."""
    return np.array([
        galloping_intersect_size(graph.neighbors(int(u)),
                                 graph.neighbors(int(v)))
        for u, v in zip(arc_sources(graph), graph.indices)], dtype=np.int64)


def wedge_counts(graph) -> np.ndarray:
    """What the all-arcs scan counts for arc ``(u, v)``: entries of
    ``N(v)`` that lie in ``N(u)`` -- galloping's count on simple rows,
    and still defined on rows that repeat a neighbour."""
    return np.array([
        sum(int(w) in set(graph.neighbors(int(u)).tolist())
            for w in graph.neighbors(int(v)))
        for u, v in zip(arc_sources(graph), graph.indices)], dtype=np.int64)


def cycle(n: int) -> CSRGraph:
    return CSRGraph.from_edges([(i, (i + 1) % n) for i in range(n)])


SYMMETRIC_GRAPHS = {
    "rmat": lambda: rmat(7, edge_factor=6, seed=2),
    "weighted": lambda: powerlaw_cluster(150, attach=4, seed=1)
    .with_random_weights(np.random.default_rng(8)),
    # Every degree equal: the smaller endpoint is decided by id alone.
    "cycle": lambda: cycle(9),
    "cliques": lambda: ring_of_cliques(4, 5),
    "star": lambda: star(12),
    # Nodes 40..59 have no arcs at all.
    "isolated": lambda: CSRGraph.from_edges(
        np.random.default_rng(4).integers(0, 40, size=(120, 2)),
        num_nodes=60),
    "empty": lambda: CSRGraph.from_edges([], num_nodes=5),
}
ASYMMETRIC_GRAPHS = {
    "directed": lambda: CSRGraph.from_edges(
        np.random.default_rng(1).integers(0, 60, size=(400, 2)),
        num_nodes=60, directed=True),
    "directed-dead-ends": TABLE_GRAPHS["directed"],
    # Hand-built and mislabelled: claims to be undirected, stores 0->1,
    # 0->2, 1->2, 2->0 -- only (0,2)/(2,0) has its reverse.
    "asymmetric-undirected": lambda: CSRGraph(
        [0, 2, 3, 4], [1, 2, 2, 0], directed=False),
    # Symmetric as a set, but row 0 lists neighbour 2 twice: the counts
    # are no longer symmetric in their endpoints, so nothing may be
    # mirrored.
    "repeated-arc": lambda: CSRGraph(
        [0, 3, 5, 8], [1, 2, 2, 0, 2, 0, 0, 1], directed=False),
}


class TestCommonNeighbourPass:
    """Min-side scan + mirror ≡ one intersection per arc."""

    @pytest.mark.parametrize("family", sorted(SYMMETRIC_GRAPHS))
    def test_symmetric_graphs_mirror(self, family):
        graph = SYMMETRIC_GRAPHS[family]()
        rev = _reverse_arcs(graph, arc_sources(graph))
        assert rev is not None
        # A certified reversal: an involution that swaps the endpoints.
        np.testing.assert_array_equal(rev[rev], np.arange(rev.size))
        np.testing.assert_array_equal(graph.indices[rev], arc_sources(graph))
        table = common_neighbor_counts_per_arc(graph)
        assert table.dtype == np.int64 and not table.flags.writeable
        np.testing.assert_array_equal(table, galloping_counts(graph))
        np.testing.assert_array_equal(table, table[rev])

    @pytest.mark.parametrize("family", sorted(ASYMMETRIC_GRAPHS))
    def test_asymmetric_inputs_scan_every_arc(self, family):
        graph = ASYMMETRIC_GRAPHS[family]()
        assert _reverse_arcs(graph, arc_sources(graph)) is None
        table = common_neighbor_counts_per_arc(graph)
        np.testing.assert_array_equal(table, wedge_counts(graph))
        if family != "repeated-arc":
            np.testing.assert_array_equal(table, galloping_counts(graph))

    def test_repeated_arc_counts_are_not_symmetric(self):
        """Why a repeated arc must disable the mirror: (0, 1) sees node 2
        once in N(1), (1, 0) sees it twice in N(0)."""
        graph = ASYMMETRIC_GRAPHS["repeated-arc"]()
        table = common_neighbor_counts_per_arc(graph)
        assert table[0] == 1 and table[3] == 2

    def test_min_side_scan_gathers_fewer_wedges(self):
        """The point of the pass: on a heavy-tailed graph the smaller
        endpoints' rows are a fraction of every target's row."""
        graph = rmat(9, edge_factor=8, seed=1)
        source, deg = arc_sources(graph), graph.degrees
        all_arcs = int(deg[graph.indices].sum())
        min_side = int(np.minimum(deg[source], deg[graph.indices]).sum()) // 2
        assert min_side * 3 < all_arcs

    def test_table_is_memoised_on_the_graph(self):
        graph = cycle(6)
        assert (common_neighbor_counts_per_arc(graph)
                is common_neighbor_counts_per_arc(graph))


class TestFactory:
    def test_known_kernels(self, small_graph):
        for name in ("deepwalk", "node2vec", "huge", "huge+"):
            k = make_kernel(name, small_graph)
            assert k.name == name

    def test_node2vec_kwargs(self, small_graph):
        k = make_kernel("node2vec", small_graph, p=0.5, q=4.0)
        assert k.p == 0.5

    def test_unknown_kernel(self, small_graph):
        with pytest.raises(KeyError):
            make_kernel("pagerank", small_graph)
