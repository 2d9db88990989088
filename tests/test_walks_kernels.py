"""Tests for the walk kernels (DeepWalk, node2vec, HuGE, HuGE+) and their
one interface: the batched trial against the scalar reference, lane by
lane."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import CSRGraph, powerlaw_cluster, ring_of_cliques, rmat, star
from repro.partition.galloping import galloping_intersect_size
from repro.walks import (
    KERNELS,
    DeepWalkKernel,
    HuGEKernel,
    HuGEPlusKernel,
    Node2VecKernel,
    WalkConfig,
    make_kernel,
)
from repro.utils.rng import WalkerStream
from repro.walks.kernels import (
    _reverse_arcs,
    common_neighbor_counts_per_arc,
    propose_with_uniform,
)
from repro.walks.vectorized import WalkBuffers, _TrialLanes

from oracles.walks import accepted_draws


def one_lane_per_walker(n):
    lanes = _TrialLanes()
    widths = np.ones(n, dtype=np.int64)
    lanes.layout(widths, np.cumsum(widths))
    return lanes


class TestDeepWalk:
    def test_uniform_choice(self, small_graph, rng):
        k = DeepWalkKernel(small_graph)
        nbrs = set(int(x) for x in small_graph.neighbors(0))
        for nxt in accepted_draws(k, 0, -1, rng, 50):
            assert nxt in nbrs

    def test_weighted_choice_respects_weights(self, rng):
        g = CSRGraph.from_edges([(0, 1), (0, 2)], weights=[100.0, 1.0])
        k = DeepWalkKernel(g)
        picks = accepted_draws(k, 0, -1, rng, 300).tolist()
        assert picks.count(1) > picks.count(2) * 5

    def test_isolated_node_raises(self):
        g = CSRGraph.from_edges([(0, 1)], num_nodes=3)
        with pytest.raises(ValueError, match="no neighbours"):
            DeepWalkKernel(g).step_with_uniforms(2, -1, 0.5, 0.5, False)


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
        for u1, u2 in rng.random((50, 2)):
            assert k.step_with_uniforms(0, 1, u1, u2, False) is not None

    def test_small_q_prefers_outward(self, rng):
        # Star-of-paths: from center, q << 1 favours DFS-like moves.
        k_dfs = Node2VecKernel(ring_of_cliques(4, 6), p=1.0, q=0.25)
        accepted = sum(k_dfs.step_with_uniforms(0, 1, u1, u2, False)
                       is not None for u1, u2 in rng.random((200, 2)))
        assert 0 < accepted <= 200

    def test_first_step_is_first_order(self, triangle, rng):
        k = Node2VecKernel(triangle, p=0.5, q=2.0)
        assert set(accepted_draws(k, 0, -1, rng, 50).tolist()) == {1, 2}

    def test_weighted_graph_steps_to_neighbours(self, weighted_triangle, rng):
        k = Node2VecKernel(weighted_triangle, p=2.0, q=0.5)
        assert set(accepted_draws(k, 1, 0, rng, 50).tolist()) <= {0, 2}

    def test_small_p_prefers_backtracking(self, rng):
        g = ring_of_cliques(3, 5)
        k = Node2VecKernel(g, p=0.05, q=1.0)
        back_rate = np.mean(accepted_draws(k, 1, 0, rng, 800) == 0)
        assert back_rate > 2.0 / g.degree(1)

    def test_large_p_avoids_backtracking(self, rng):
        g = ring_of_cliques(3, 5)
        k = Node2VecKernel(g, p=20.0, q=1.0)
        back_rate = np.mean(accepted_draws(k, 1, 0, rng, 800) == 0)
        assert back_rate < 0.5 / g.degree(1)

    @settings(max_examples=25, deadline=None)
    @given(num_cliques=st.integers(min_value=2, max_value=4),
           clique_size=st.integers(min_value=3, max_value=6),
           p=st.sampled_from((0.25, 0.5, 1.0, 2.0, 4.0)),
           q=st.sampled_from((0.25, 0.5, 1.0, 2.0, 4.0)),
           seed=st.integers(min_value=0, max_value=10_000))
    def test_accepted_hops_are_arcs(self, num_cliques, clique_size, p, q,
                                    seed):
        g = ring_of_cliques(num_cliques, clique_size)
        rng = np.random.default_rng(seed)
        k = Node2VecKernel(g, p=p, q=q)
        current = int(rng.integers(0, g.num_nodes))
        previous = int(g.neighbors(current)[0])
        for out in accepted_draws(k, current, previous, rng, 10):
            assert g.has_edge(current, int(out))

    def test_routine_walks_in_the_engine(self, small_graph):
        from repro.partition import HashPartitioner
        from repro.runtime.cluster import Cluster
        from repro.walks import DistributedWalkEngine

        assignment = HashPartitioner().partition(small_graph, 2).assignment
        cluster = Cluster(2, assignment, seed=0)
        cfg = WalkConfig.routine(kernel="node2vec", walk_length=8,
                                 walks_per_node=1, p=0.5, q=2.0)
        corpus = DistributedWalkEngine(small_graph, cluster, cfg).run().corpus
        assert corpus.num_walks == small_graph.num_nodes
        for walk in corpus.walks:
            assert len(walk) == 8
            for a, b in zip(walk[:-1], walk[1:]):
                assert small_graph.has_edge(int(a), int(b))


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
        outcomes = {k.step_with_uniforms(5, -1, u1, u2, False)
                    for u1, u2 in rng.random((100, 2))}
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
        table = KERNELS[name](graph).arc_acceptance_table()
        assert table.dtype == np.float64
        assert table.shape == (graph.num_stored_edges,)
        # A fresh kernel: the scalar path must not lean on table state.
        np.testing.assert_array_equal(
            table, scalar_arc_table(KERNELS[name](graph)))

    @pytest.mark.parametrize("name", ("huge", "huge+"))
    def test_zero_degree_endpoint(self, name):
        graph = TABLE_GRAPHS["directed"]()
        kernel = KERNELS[name](graph)
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
        kernel = KERNELS[name](graph)
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
        for name in KERNELS:
            k = make_kernel(WalkConfig(kernel=name), small_graph)
            assert k.name == name
            assert isinstance(k, KERNELS[name])

    def test_reads_p_and_q_from_the_config(self, small_graph):
        k = make_kernel(WalkConfig(kernel="node2vec", p=0.5, q=4.0),
                        small_graph)
        assert (k.p, k.q) == (0.5, 4.0)

    def test_unknown_kernel(self, small_graph):
        class Config:
            kernel = "pagerank"

        with pytest.raises(KeyError):
            make_kernel(Config, small_graph)

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_given_tables_are_used_as_they_are(self, name):
        graph = TABLE_GRAPHS["weighted"]()
        config = WalkConfig(kernel=name, p=2.0, q=0.5)
        built = make_kernel(config, graph).tables
        adopted = make_kernel(config, graph, built)
        assert adopted.tables.keys() == built.keys()
        assert all(adopted.tables[key] is built[key] for key in built)

    def test_tables_are_built_on_first_use_only(self, medium_graph):
        kernel = make_kernel(WalkConfig(kernel="huge"), medium_graph)
        kernel.step_with_uniforms(0, -1, 0.5, 0.5, False)
        assert kernel._tables is None      # the scalar path needs none


# ---------------------------------------------------------------------- #
# The interface contract: batched trial == scalar reference, per lane
# ---------------------------------------------------------------------- #


def contract_graph(family: str, seed: int) -> CSRGraph:
    """Small random inputs of every shape a walk meets: unweighted,
    weighted (some rows all-zero), directed with dead ends, and both."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 24))
    edges = rng.integers(0, n, size=(int(rng.integers(n, 4 * n)), 2))
    directed = family.startswith("directed")
    # Directed inputs keep a few nodes out of every source: dead ends.
    num_nodes = n + 3 if directed else n
    weights = None
    if family.endswith("weighted"):
        weights = rng.choice([0.0, 0.25, 1.0, 3.5], size=len(edges),
                             p=[0.3, 0.2, 0.3, 0.2])
    return CSRGraph.from_edges(edges, num_nodes=num_nodes, weights=weights,
                               directed=directed)


def contract_walkers(graph: CSRGraph, rng, count: int):
    """``(cur, prev)`` per walker: walk starts (``prev = -1``) and walkers
    that arrived over a stored arc, always standing on a live node."""
    source = np.repeat(np.arange(graph.num_nodes), graph.degrees)
    arrivals = np.flatnonzero(graph.degrees[graph.indices] > 0)
    live = np.flatnonzero(graph.degrees > 0)
    cur = np.empty(count, dtype=np.int64)
    prev = np.full(count, -1, dtype=np.int64)
    for j in range(count):
        if arrivals.size and rng.random() < 0.7:
            arc = arrivals[rng.integers(arrivals.size)]
            cur[j], prev[j] = graph.indices[arc], source[arc]
        else:
            cur[j] = live[rng.integers(live.size)]
    return cur, prev


class TestLaneContract:
    """For every kernel: the batched trial proposes, per lane, the arc the
    scalar reference proposes from the same two uniforms, and accepts
    exactly where the reference accepts."""

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(sorted(KERNELS)),
           family=st.sampled_from(("unweighted", "weighted", "directed",
                                   "directed-weighted")),
           p=st.sampled_from((0.25, 1.0, 4.0)),
           q=st.sampled_from((0.5, 1.0, 2.0)),
           walkers=st.integers(1, 12),
           seed=st.integers(0, 2**32 - 1))
    def test_trial_is_the_scalar_reference(self, name, family, p, q,
                                           walkers, seed):
        graph = contract_graph(family, seed)
        if not graph.degrees.any():
            return
        rng = np.random.default_rng(seed)
        config = WalkConfig(kernel=name, p=p, q=q)
        kernel = make_kernel(config, graph)
        # A fresh kernel: the scalar path must not lean on table state.
        reference = make_kernel(config, graph)
        cur, prev = contract_walkers(graph, rng, walkers)
        widths = rng.integers(1, 6, size=walkers)
        ends = np.cumsum(widths)
        lanes = _TrialLanes()
        lanes.layout(widths, ends)
        u1, u2 = rng.random((2, int(ends[-1])))
        u1[::5] = np.nextafter(1.0, 0.0)        # the clamp at u1 -> 1
        arc, accepted = kernel.trial(
            lanes, cur, prev if kernel.second_order else None, u1, u2)
        arc, accepted = arc.copy(), accepted.copy()
        own = np.repeat(np.arange(walkers), widths)
        indptr = graph.indptr
        for lane, j in enumerate(own.tolist()):
            assert indptr[cur[j]] <= arc[lane] < indptr[cur[j] + 1]
            candidate = int(graph.indices[arc[lane]])
            args = (int(cur[j]), int(prev[j]), u1[lane], u2[lane])
            expected = candidate if accepted[lane] else None
            assert reference.step_with_uniforms(*args, False) == expected
            assert reference.step_with_uniforms(*args, True) == candidate


GAMMA = 0x9E3779B97F4A7C15
U64 = 2**64


def iterated_reference(kernel, graph, node: int, argument: int,
                       horizon: int):
    """One whole step by the scalar reference: ``step_with_uniforms`` over
    the walker's stream from ``argument`` until it accepts or the hop is
    forced at trial ``horizon`` -> ``(arc, trials, next argument)``."""
    # The stream whose counter 0 sits at ``argument``.
    stream = WalkerStream((argument - GAMMA) % U64, 0)
    for trial in range(1, horizon + 1):
        u1, u2 = stream.next_pair()
        if kernel.step_with_uniforms(node, -1, u1, u2,
                                     trial == horizon) is not None:
            break
    _, k = propose_with_uniform(graph, node, u1)
    return (int(graph.indptr[node]) + k, trial,
            (stream.key + GAMMA * (stream.counter + 1)) % U64)


def unmix(z: int) -> int:
    """The stream argument whose uniform draws ``z`` (splitmix64's output
    mix inverted: xor-shifts undone by iteration, odd multipliers by
    their inverses mod 2**64)."""
    def unshift(y, s):
        x = y
        for _ in range(64 // s + 1):
            x = y ^ (x >> s)
        return x

    z = unshift(z, 31) * pow(0x94D049BB133111EB, -1, U64) % U64
    z = unshift(z, 27) * pow(0xBF58476D1CE4E5B9, -1, U64) % U64
    return unshift(z, 30)


def assert_steps_are_the_reference(kernel, reference, graph, cur, start,
                                   horizon, cap):
    """``resolve_walks`` from ``cur`` at stream arguments ``start`` for
    ``cap`` tokens: step ``s`` of each walker takes the arc and the trial
    count of the reference's step from where step ``s - 1`` left the node
    and the stream argument, and a dead end stops the walk.  Returns the
    walks' buffers."""
    cur = np.asarray(cur, dtype=np.int64)
    out = WalkBuffers.allocate(cur.size, cap)
    kernel.resolve_walks(cur, np.array(start, dtype=np.uint64), horizon, out)
    for j in range(cur.size):
        node, argument = int(cur[j]), int(start[j])
        length = 1
        while length < cap and graph.degrees[node]:
            arc, trials, argument = iterated_reference(
                reference, graph, node, argument, horizon)
            assert (int(out.arcs[j, length]),
                    int(out.trials[j, length])) == (arc, trials)
            node = int(graph.indices[arc])
            assert int(out.paths[j, length]) == node
            length += 1
        assert int(out.lengths[j]) == length
    assert out.trials.max() <= horizon
    return out


class TestStepContract:
    """For the kernels that resolve their own walks (the HuGE kernels'
    compiled library): per walker, each step's arc and trial count are the
    scalar reference's, iterated -- and a second step, which starts where
    the first left the walker's stream argument, checks that argument."""

    @settings(max_examples=80, deadline=None)
    @given(name=st.sampled_from(("huge", "huge+")),
           family=st.sampled_from(("unweighted", "weighted", "directed",
                                   "directed-weighted")),
           max_trials=st.sampled_from((1, 2, 3, 32)),
           walkers=st.integers(1, 12),
           cap=st.sampled_from((2, 3)),
           seed=st.integers(0, 2**32 - 1))
    def test_resolver_is_the_iterated_reference(self, compiled_library, name,
                                                family, max_trials, walkers,
                                                cap, seed):
        graph = contract_graph(family, seed)
        if not graph.degrees.any():
            return
        rng = np.random.default_rng(seed)
        config = WalkConfig(kernel=name)
        kernel = make_kernel(config, graph)
        reference = make_kernel(config, graph)
        assert kernel.resolves_walks
        cur, _ = contract_walkers(graph, rng, walkers)
        args = rng.integers(0, U64, size=walkers, dtype=np.uint64)
        # Arguments a few γ below 2**64, and a few units below it: the
        # walker's trials wrap modulo 2**64 within its step.
        args[::3] = [(-int(k) * GAMMA) % U64
                     for k in rng.integers(1, 5, size=args[::3].size)]
        args[1::3] = [U64 - int(k)
                      for k in rng.integers(1, 9, size=args[1::3].size)]
        assert_steps_are_the_reference(kernel, reference, graph, cur,
                                       args.tolist(), max_trials + 1, cap)

    def test_exact_ties(self, compiled_library):
        """Uniforms chosen through the inverted mix: proposals landing
        exactly on a cumsum entry (a zero weight repeats one), the clamp
        at ``u1 → 1``, and an acceptance uniform equal to a zero-weight
        arc's probability on an all-zero row."""
        graph = CSRGraph.from_edges(
            [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (6, 7), (6, 8),
             (7, 0), (8, 0)],
            weights=[0.0, 1.0, 0.0, 1.0, 2.0, 0.0, 0.0, 1.0, 1.0],
            directed=True)
        kernel = make_kernel(WalkConfig(kernel="huge"), graph)
        u1s = [0.0, 0.25, 0.5, 0.75, 1.0 - 2.0**-53]
        start = [unmix(int(u * 2**53) << 11) for u in u1s]
        cur = [0] * len(u1s) + [6] * len(u1s)
        # The acceptance uniform sits one γ past the proposal's.
        start += [(unmix(int(u * 2**53) << 11) - GAMMA) % U64 for u in u1s]
        assert_steps_are_the_reference(kernel, kernel, graph, cur, start, 3,
                                       3)

    def test_forced_hops_happen(self, compiled_library):
        """An R-MAT hub expects four rejections per hop: at one retry per
        step most steps run into the forced hop, and it is the
        reference's."""
        graph = rmat(6, edge_factor=6, seed=3)
        kernel = make_kernel(WalkConfig(kernel="huge"), graph)
        hub = int(np.argmax(graph.degrees))
        cur = np.full(64, hub, dtype=np.int64)
        start = (np.arange(64, dtype=np.uint64) * np.uint64(7919)).tolist()
        out = assert_steps_are_the_reference(kernel, kernel, graph, cur,
                                             start, 2, 2)
        assert (out.trials[:, 1] == 2).sum() > 32


class TestZeroWeightRows:
    """A row whose weights are all zero proposes uniformly, in both paths
    of every kernel."""

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_proposal_is_uniform(self, name, rng):
        graph = CSRGraph.from_edges([(0, 1), (0, 2), (0, 3)],
                                    weights=[0.0, 0.0, 0.0])
        kernel = make_kernel(WalkConfig(kernel=name), graph)
        u1, u2 = rng.random((2, 3000))
        # The forced hop takes the proposal whatever the acceptance.
        scalar = np.array([kernel.step_with_uniforms(0, -1, a, b, True)
                           for a, b in zip(u1, u2)])
        counts = np.bincount(scalar, minlength=4)
        assert counts[0] == 0 and counts[1:].min() > 850
        walkers = np.zeros(u1.size, dtype=np.int64)
        arc, _ = kernel.trial(one_lane_per_walker(u1.size), walkers,
                              walkers - 1 if kernel.second_order else None,
                              u1, u2)
        np.testing.assert_array_equal(graph.indices[arc], scalar)
