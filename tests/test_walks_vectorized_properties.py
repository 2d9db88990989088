"""Property-based invariants of the batched InCoM walk engine.

Seeded-random parametrization (graph family × seed grid) rather than
free-form fuzzing: every case is deterministic and CI-reproducible.
Invariants covered:

* entropy accumulators are non-negative and bounded by ``log2 L``;
* walk lengths always fall in ``[min_length, max_length]`` (dead ends are
  the one sanctioned early exit);
* corpus visit counters sum to the total accepted steps plus one source
  token per walk;
* stats are conserved across machines: per-machine counters sum to the
  global trial/step counts, and the corpus itself is invariant to the
  machine count under the walker RNG protocol;
* determinism: same seed ⇒ byte-identical corpus, for the lock-step
  engine and for the per-walker loop oracle;
* block trials: paths, lengths, per-step trial counts, stats and cluster
  metrics do not depend on how many trials a superstep evaluates for
  which walker -- fixed widths, drawn per-walker width vectors, blocks
  straddling the forced-hop cap, and the scratch-budget clamp all emit
  the bytes of the one-trial-per-superstep run and of the per-walker loop
  engine; the flat ragged lanes address exactly the counters a walker
  would reach one trial at a time, and the in-place mix is the expression
  it replaced, wrap-around included.
"""

from __future__ import annotations

import functools
import itertools
from contextlib import contextmanager, nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import (
    CSRGraph,
    community_graph,
    powerlaw_cluster,
    ring_of_cliques,
    rmat,
)
from repro.runtime import Cluster, ExecutionContext
from repro.utils.rng import (
    WalkerStream,
    _mix64,
    stream_arguments,
    stream_uniforms,
    walker_stream_keys,
)
from repro.walks import Corpus, DistributedWalkEngine, WalkConfig, vectorized
from repro.walks.vectorized import BatchWalkRunner, DeferredWalkAccounting
from repro.walks.walker import WalkStats

from oracles.walks import LoopWalkEngine

GRAPHS = {
    "ring": lambda seed: ring_of_cliques(4, 6),
    "powerlaw": lambda seed: powerlaw_cluster(80, attach=3, seed=seed),
    "community": lambda seed: community_graph(60, 3, within_degree=8.0,
                                              cross_degree=0.5,
                                              seed=seed)[0],
}
SEEDS = (0, 7, 42)


def run_vectorized(graph, seed, machines=2, **overrides):
    assignment = np.arange(graph.num_nodes, dtype=np.int64) % machines
    cluster = Cluster(machines, assignment, seed=seed)
    cfg = WalkConfig.distger(max_rounds=2, min_rounds=1, **overrides)
    engine = DistributedWalkEngine(graph, cluster, cfg)
    return engine.run(), cluster, engine


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("family", sorted(GRAPHS))
class TestInvariants:
    def test_walk_lengths_within_bounds(self, family, seed):
        graph = GRAPHS[family](seed)
        result, _, _ = run_vectorized(graph, seed, min_length=4, max_length=24)
        # These graph families have no dead ends, so the bounds are exact.
        assert all(4 <= l <= 24 for l in result.stats.walk_lengths)

    def test_visit_counters_sum_to_steps(self, family, seed):
        graph = GRAPHS[family](seed)
        result, _, _ = run_vectorized(graph, seed)
        # tokens = one source token per walk + one per accepted step.
        assert result.corpus.total_tokens == (
            result.stats.total_walks + result.stats.total_steps)
        assert int(result.corpus.occurrences.sum()) == result.corpus.total_tokens
        assert sum(result.stats.walk_lengths) == result.corpus.total_tokens

    def test_entropy_accumulators_nonnegative(self, family, seed):
        graph = GRAPHS[family](seed)
        # Reads the in-process runner's state, which only the serial
        # executor leaves behind: the compiled walks' final S and moments
        # where the library builds, the NumPy lanes' otherwise (the two
        # are held to the same bits in test_walks_compiled_walks.py).
        _, _, engine = run_vectorized(
            graph, seed, context=ExecutionContext("serial"))
        runner = engine._batch_runner
        # The final round's batch state is still attached to the runner.
        assert np.all(runner._S >= 0.0)
        assert np.all(np.isfinite(runner._S))
        # E(H) is a mean of entropies: non-negative, at most log2(max len).
        assert np.all(runner._e_h >= 0.0)
        assert np.all(runner._e_h <= np.log2(80.0))
        # Moment consistency: E(H²) ≥ E(H)² and E(L²) ≥ E(L)² (variances).
        assert np.all(runner._e_h2 - runner._e_h * runner._e_h >= -1e-12)
        assert np.all(runner._e_l2 - runner._e_l * runner._e_l >= -1e-9)

    def test_stats_conserved_across_machines(self, family, seed):
        graph = GRAPHS[family](seed)
        result, cluster, _ = run_vectorized(graph, seed, machines=3)
        m = cluster.metrics
        assert sum(m.local_steps) == result.stats.total_steps
        # Every trial credits one compute unit; every accepted InCoM step
        # credits one more for the O(1) measurement.
        assert sum(m.compute_units) == pytest.approx(
            result.stats.total_trials + result.stats.total_steps)
        assert sum(sum(row) for row in m.message_byte_matrix) == m.message_bytes
        assert m.message_bytes == m.messages_sent * 80

    def test_machine_count_invariance(self, family, seed):
        graph = GRAPHS[family](seed)
        corpora = []
        for machines in (1, 2, 4):
            result, _, _ = run_vectorized(graph, seed, machines=machines)
            corpora.append([tuple(int(v) for v in w) for w in result.corpus.walks])
        assert corpora[0] == corpora[1] == corpora[2]


class TestDeterminism:
    """Satellite: same seed ⇒ byte-identical corpus, loop and vectorized."""

    @pytest.mark.parametrize("engine", (
        pytest.param(LoopWalkEngine, id="loop"),
        pytest.param(DistributedWalkEngine, id="vectorized")))
    def test_same_seed_same_corpus(self, engine, small_graph):
        outs = []
        for _ in range(2):
            assignment = np.arange(small_graph.num_nodes, dtype=np.int64) % 2
            cluster = Cluster(2, assignment, seed=13)
            cfg = WalkConfig.distger(max_rounds=1, min_rounds=1)
            result = engine(small_graph, cluster, cfg).run()
            outs.append([w.tobytes() for w in result.corpus.walks])
        assert outs[0] == outs[1]

    def test_different_seeds_differ(self, small_graph):
        outs = []
        for seed in (1, 2):
            assignment = np.zeros(small_graph.num_nodes, dtype=np.int64)
            cluster = Cluster(1, assignment, seed=seed)
            cfg = WalkConfig.distger(max_rounds=1, min_rounds=1)
            result = DistributedWalkEngine(small_graph, cluster, cfg).run()
            outs.append([tuple(int(v) for v in w) for w in result.corpus.walks])
        assert outs[0] != outs[1]

    def test_seed_root_derivation_is_shared(self, small_graph):
        """The per-walker loop and the lock-step rounds derive walker
        streams through the same repro.utils.rng helpers, from the same
        cluster root."""
        assignment = np.zeros(small_graph.num_nodes, dtype=np.int64)
        c1 = Cluster(1, assignment, seed=99)
        c2 = Cluster(1, assignment, seed=99)
        assert c1.walk_seed_root == c2.walk_seed_root
        keys = walker_stream_keys(c1.walk_seed_root, np.arange(5))
        again = walker_stream_keys(c2.walk_seed_root, np.arange(5))
        np.testing.assert_array_equal(keys, again)

    def test_none_seed_stays_nondeterministic(self, small_graph):
        roots = {Cluster(1, np.zeros(small_graph.num_nodes, dtype=np.int64),
                         seed=None).walk_seed_root for _ in range(4)}
        assert len(roots) > 1


class TestCounterStreams:
    """The shared seed protocol itself (repro.utils.rng)."""

    def test_uniforms_in_unit_interval(self):
        keys = walker_stream_keys(1234, np.arange(1000))
        u = stream_uniforms(keys, np.zeros(1000, dtype=np.uint64))
        assert np.all(u >= 0.0) and np.all(u < 1.0)

    def test_streams_are_order_independent(self):
        keys = walker_stream_keys(5, np.arange(8))
        counters = np.arange(8, dtype=np.uint64)
        batched = stream_uniforms(keys, counters)
        one_by_one = np.array([
            float(stream_uniforms(np.array([k], dtype=np.uint64),
                                  np.array([c], dtype=np.uint64))[0])
            for k, c in zip(keys, counters)
        ])
        np.testing.assert_array_equal(batched, one_by_one)

    def test_walker_stream_matches_array_path(self):
        """The per-walker loop's integer fast path is bit-identical to
        the vectorized uint64 ufunc path, pair by pair."""
        keys = walker_stream_keys(777, np.arange(16))
        for key in keys:
            stream = WalkerStream(int(key))
            scalar = []
            for _ in range(25):
                scalar.extend(stream.next_pair())
            batched = stream_uniforms(
                np.full(50, key, dtype=np.uint64),
                np.arange(50, dtype=np.uint64),
            )
            np.testing.assert_array_equal(np.array(scalar), batched)

    def test_streams_look_uniform(self):
        keys = walker_stream_keys(0, np.arange(200))
        u = np.concatenate([
            stream_uniforms(keys, np.full(200, t, dtype=np.uint64))
            for t in range(200)
        ])
        assert abs(u.mean() - 0.5) < 0.01
        assert abs(np.quantile(u, 0.25) - 0.25) < 0.02


# ---------------------------------------------------------------------- #
# Block trials: any width vector, the same bytes
# ---------------------------------------------------------------------- #

ALL_KERNELS = ("deepwalk", "node2vec", "node2vec-alias", "huge", "huge+")


@contextmanager
def pinned_widths(widths):
    """Replace the widths policy: each live walker of each superstep takes
    the next entry of ``widths`` (cycled), so a one-element list is a
    rectangular block and anything longer is ragged, differently in every
    superstep.

    The pinned widths bypass the policy on purpose: they may overshoot the
    forced-hop horizon and the scratch budget (the loop clamps both) and
    still must change nothing.
    """
    seq = itertools.cycle(widths)

    def policy(self, cur, waited, spent, hops):
        return np.fromiter(itertools.islice(seq, cur.size), dtype=np.int64,
                           count=cur.size)

    with mock.patch.object(BatchWalkRunner, "_block_width", policy):
        yield


def block_graph(kind):
    """Rejection-heavy inputs: heavy-tailed R-MAT (HuGE accepts ~1 in 5
    proposals), weighted, and directed with dead ends."""
    if kind == "weighted":
        return rmat(6, edge_factor=6, seed=3).with_random_weights(
            np.random.default_rng(5))
    edges = np.random.default_rng(11).integers(0, 48, size=(160, 2))
    return CSRGraph.from_edges(edges, num_nodes=48, directed=True)


def block_config(kernel, mode, **overrides):
    kwargs = dict(kernel=kernel, mode=mode, p=0.5, q=2.0, max_length=30,
                  walk_length=12)
    kwargs.update(overrides)
    return WalkConfig(**kwargs)


def emitted(paths, lengths, trials, stats, cluster):
    return {
        "paths": paths.tobytes(), "lengths": lengths.tobytes(),
        "trials": None if trials is None else trials.tobytes(),
        "stats": (stats.total_trials, stats.total_steps),
        "metrics": cluster.metrics.as_dict(),
        "compute": list(cluster.metrics.compute_units),
        "local_steps": list(cluster.metrics.local_steps),
        "matrix": cluster.metrics.message_byte_matrix,
    }


#: The snapshot walks are walk ids 7n .. 8n-1: round 7 of the loop oracle.
ROUND = 7


def snapshot(graph, kernel, mode, deferred=False, machines=3, **overrides):
    """Everything one round of walks emits, credited through the one
    accounting (``deferred`` also keeps the per-step trial buffer)."""
    cfg = block_config(kernel, mode, **overrides)
    assignment = np.arange(graph.num_nodes, dtype=np.int64) % machines
    cluster = Cluster(machines, assignment, seed=17)
    engine = DistributedWalkEngine(graph, cluster, cfg)
    runner = BatchWalkRunner(graph, cluster.walk_seed_root, cfg,
                             engine.kernel)
    sources = np.flatnonzero(graph.degrees > 0)
    walks = runner.run_walks(
        sources, ROUND * sources.size + np.arange(sources.size))
    accounting = DeferredWalkAccounting(graph, mode, engine._message_bytes)
    stats = WalkStats()
    stats.total_trials, stats.total_steps = accounting.observe_round(walks)
    accounting.apply(assignment, cluster.metrics)
    return emitted(walks.paths, walks.lengths,
                   walks.trials if deferred else None, stats, cluster), walks


@functools.lru_cache(maxsize=None)
def loop_snapshot(graph_kind, kernel, mode, machines=3, **overrides):
    """The same walks from the per-walker loop of
    :class:`~oracles.walks.LoopWalkEngine` in :func:`snapshot`'s form (it
    has no per-step trial buffer, so ``trials`` is ``None``)."""
    graph = block_graph(graph_kind)
    cfg = block_config(kernel, mode, **overrides)
    assignment = np.arange(graph.num_nodes, dtype=np.int64) % machines
    cluster = Cluster(machines, assignment, seed=17)
    engine = LoopWalkEngine(graph, cluster, cfg)
    sources = np.flatnonzero(graph.degrees > 0)
    corpus, stats = Corpus(graph.num_nodes), WalkStats()
    engine._run_round_loop_walker(sources, ROUND, corpus, stats, [])
    cap = cfg.walk_length if mode == "routine" else cfg.max_length
    paths = np.full((sources.size, cap), -1, dtype=np.int64)
    for row, walk in zip(paths, corpus.walks):
        row[:walk.size] = walk
    lengths = np.array(stats.walk_lengths, dtype=np.int64)
    return emitted(paths, lengths, None, stats, cluster)


def assert_is_the_loop(got, graph_kind, kernel, mode, **overrides):
    reference = loop_snapshot(graph_kind, kernel, mode, **overrides)
    assert {**got, "trials": None} == reference


@pytest.mark.usefixtures("lanes_path")
class TestBlockTrials:
    """On the NumPy trial lanes: the HuGE kernels' compiled resolver runs
    each walker's trials to its hop and has no widths to vary (its own
    contract is ``TestStepContract``)."""

    @pytest.mark.parametrize("deferred", (False, True))
    @pytest.mark.parametrize("graph_kind", ("weighted", "directed"))
    @pytest.mark.parametrize("mode", ("incom", "routine", "fullpath"))
    @pytest.mark.parametrize("kernel", ALL_KERNELS)
    def test_width_invariance(self, kernel, mode, graph_kind, deferred):
        graph = block_graph(graph_kind)
        with pinned_widths([1]):
            reference, _ = snapshot(graph, kernel, mode, deferred)
        assert_is_the_loop(reference, graph_kind, kernel, mode)
        for widths in ([2], [3], [8], [33], [1, 4], [5, 1, 2, 40, 3]):
            with pinned_widths(widths):
                got, _ = snapshot(graph, kernel, mode, deferred)
            assert got == reference, f"widths {widths}"
        adaptive, _ = snapshot(graph, kernel, mode, deferred)
        assert adaptive == reference

    @settings(max_examples=40, deadline=None)
    @given(widths=st.lists(st.integers(1, 40), min_size=1, max_size=23),
           kernel=st.sampled_from(ALL_KERNELS),
           mode=st.sampled_from(("incom", "routine", "fullpath")),
           graph_kind=st.sampled_from(("weighted", "directed")))
    def test_any_width_vector(self, widths, kernel, mode, graph_kind):
        """Per-walker widths, redrawn from the list every superstep: the
        run is the loop oracle and its trial buffer is the one-trial
        run's."""
        graph = block_graph(graph_kind)
        with pinned_widths(widths):
            got, _ = snapshot(graph, kernel, mode)
            deferred, _ = snapshot(graph, kernel, mode, deferred=True)
        assert_is_the_loop(got, graph_kind, kernel, mode)
        with pinned_widths([1]):
            reference, _ = snapshot(graph, kernel, mode, deferred=True)
        assert deferred == reference
        assert deferred["paths"] == got["paths"]
        assert deferred["lengths"] == got["lengths"]

    @pytest.mark.parametrize("widths", ([2], [3], [1, 3], [4, 1, 2], [3, 2]))
    @pytest.mark.parametrize("cap", (1, 2, 3))
    def test_forced_hop_inside_a_block(self, cap, widths):
        """Blocks that straddle ``max_trials_per_step``, equal and
        unequal: the forced lane lands mid-block for one walker, on the
        last lane for its neighbour and in the next block for a third --
        and every block is cut at the horizon, whatever was asked for."""
        graph = block_graph("weighted")
        with pinned_widths([1]):
            reference, walks = snapshot(graph, "huge", "incom", True,
                                        max_trials_per_step=cap)
        # The scenario is live: some step ran into the forced lane, and
        # none ever needed more trials than the cap allows.
        assert walks.trials.max() == cap + 1
        with pinned_widths(widths):
            got, _ = snapshot(graph, "huge", "incom", True,
                              max_trials_per_step=cap)
        assert got == reference
        with pinned_widths(widths):
            serial, _ = snapshot(graph, "huge", "incom",
                                 max_trials_per_step=cap)
        assert_is_the_loop(serial, "weighted", "huge", "incom",
                           max_trials_per_step=cap)

    @pytest.mark.parametrize("graph_kind", ("weighted", "directed"))
    @pytest.mark.parametrize("kernel,mode", (
        ("huge", "incom"), ("node2vec", "routine"), ("deepwalk", "incom"),
        ("huge", "fullpath")))
    def test_deferred_accounting_is_the_in_loop_accounting(self, kernel, mode,
                                                           graph_kind):
        """``DeferredWalkAccounting`` reads each step's arc (which leads
        to the node the step recorded) and trial count off the buffers;
        folded over two rounds' worth of rows it must land on the loop
        engine's in-loop counters exactly."""
        graph = block_graph(graph_kind)
        in_loop = loop_snapshot(graph_kind, kernel, mode)
        _, walks = snapshot(graph, kernel, mode)
        step = walks.trials > 0
        np.testing.assert_array_equal(graph.indices[walks.arcs[step]],
                                      walks.paths[step])
        fields = {"node2vec": 4, "deepwalk": 3}.get(kernel, 10)
        # InCoM's 80 bytes, HuGE-D's 24 before its path, routine fields.
        message_bytes = {"incom": 80, "fullpath": 24}.get(mode, fields * 8)
        accounting = DeferredWalkAccounting(graph, mode, message_bytes)
        half = walks.lengths.size // 2    # two rounds' worth of folding
        totals = [accounting.observe_round(walks.rows(lo, hi))
                  for lo, hi in ((0, half), (half, walks.lengths.size))]
        assert tuple(map(sum, zip(*totals))) == in_loop["stats"]
        cluster = Cluster(3, np.arange(graph.num_nodes, dtype=np.int64) % 3,
                          seed=17)
        accounting.apply(cluster.assignment, cluster.metrics)
        assert emitted(walks.paths, walks.lengths, None, WalkStats(),
                       cluster) == {**in_loop, "stats": (0, 0)}

    def test_scratch_budget_clamps_the_block(self, monkeypatch):
        graph = block_graph("weighted")
        reference, _ = snapshot(graph, "huge", "incom")
        monkeypatch.setattr(vectorized, "_BLOCK_SCRATCH_LANES", 40)
        seen = []
        layout = vectorized._TrialLanes.layout

        def spy(self, widths, ends):
            seen.append((widths.size, int(ends[-1]), widths.copy()))
            return layout(self, widths, ends)

        monkeypatch.setattr(vectorized._TrialLanes, "layout", spy)
        for widths in (None, [7, 1, 3, 12, 2]):
            del seen[:]
            with pinned_widths(widths) if widths else nullcontext():
                got, _ = snapshot(graph, "huge", "incom")
            assert got == reference
            assert all(w.min() >= 1 and total <= max(alive, 40)
                       for alive, total, w in seen)
            # Wide rounds are held at one trial; the thinning tail runs
            # ragged blocks inside the budget.
            assert any(alive > 40 and total == alive
                       for alive, total, _ in seen)
            assert any(np.unique(w).size > 1 for _, _, w in seen)

    def test_width_policy(self):
        graph = block_graph("weighted")
        cluster = Cluster(1, np.zeros(graph.num_nodes, dtype=np.int64), seed=0)
        cfg = WalkConfig.distger(max_trials_per_step=12)
        engine = DistributedWalkEngine(graph, cluster, cfg)
        runner = BatchWalkRunner(graph, cluster.walk_seed_root, cfg,
                                 engine.kernel)
        # The per-node input: 1 / (proposal-weighted mean acceptance) - 1.
        accept = engine.kernel.arc_acceptance_table()
        nodes = np.flatnonzero(graph.degrees > 0)
        expected = []
        for u in nodes:
            row = slice(graph.indptr[u], graph.indptr[u + 1])
            w = graph.weights[row]
            expected.append(min(12.0, max(
                0.0, w.sum() / (w * accept[row]).sum() - 1.0)))
        rejections = runner._node_rejections[nodes]
        np.testing.assert_allclose(rejections, expected, rtol=1e-12)
        assert rejections.max() > 2 * np.median(rejections) > 0

        fresh = np.zeros(nodes.size, dtype=np.int64)
        crowd = np.tile(nodes, 200)             # a lane-bound superstep
        wide = runner._block_width(crowd, np.zeros(crowd.size, np.int64),
                                   0, 0)[:nodes.size]
        thin = runner._block_width(nodes[:8], fresh[:8], 0, 0)
        assert wide.dtype == np.int64 and wide.min() >= 1
        # One trial plus a share of the node's expected rejections ...
        share = vectorized._BLOCK_SHARE * (
            1 + vectorized._DISPATCH_BOUND_WALKERS / crowd.size)
        np.testing.assert_array_equal(
            wide, 1 + np.ceil(share * rejections).astype(np.int64))
        assert np.all(wide[np.argsort(rejections)][1:]
                      >= wide[np.argsort(rejections)][:-1])
        # ... a larger share when the superstep is thin ...
        assert np.all(thin >= wide[:8]) and thin.sum() > wide[:8].sum()
        # ... and never fewer lanes than the walker already burnt.
        waited = np.full(nodes.size, 9, dtype=np.int64)
        assert np.all(runner._block_width(nodes, waited, 0, 0) >= 9)

    def test_width_policy_without_a_node_table(self):
        """node2vec has no per-arc table: the call's running rejections
        per accepted step stand in, for every walker alike."""
        graph = block_graph("weighted")
        cluster = Cluster(1, np.zeros(graph.num_nodes, dtype=np.int64), seed=0)
        cfg = WalkConfig.routine("node2vec", p=0.5, q=2.0)
        engine = DistributedWalkEngine(graph, cluster, cfg)
        runner = BatchWalkRunner(graph, cluster.walk_seed_root, cfg,
                                 engine.kernel)
        cur = np.zeros(100_000, dtype=np.int64)
        idle = np.zeros(cur.size, dtype=np.int64)
        assert set(runner._block_width(cur, idle, 0, 0)) == {1}     # start
        assert set(runner._block_width(cur, idle, 50, 50)) == {1}   # no reject
        share = vectorized._BLOCK_SHARE * (
            1 + vectorized._DISPATCH_BOUND_WALKERS / cur.size)
        assert set(runner._block_width(cur, idle, 75, 10)) == {
            1 + int(np.ceil(share * 6.5))}

    @pytest.mark.parametrize("kernel,extra", (
        ("deepwalk", {}), ("node2vec-alias", {}),
        ("node2vec", {"p": 1.0, "q": 1.0}),
    ))
    def test_never_rejecting_kernels_waste_no_uniform(self, kernel, extra,
                                                      monkeypatch):
        drawn = []
        real = vectorized.argument_uniforms

        def counting(args, out=None, scratch=None):
            result = real(args, out=out, scratch=scratch)
            drawn.append(result.size)
            return result

        monkeypatch.setattr(vectorized, "argument_uniforms", counting)
        got, _ = snapshot(block_graph("directed"), kernel, "incom", **extra)
        trials, steps = got["stats"]
        assert trials == steps > 0
        assert sum(drawn) == 2 * trials


class TestTrialLanes:
    """The flat ragged layout addresses each walker's own counters."""

    @settings(max_examples=30, deadline=None)
    @given(widths=st.lists(st.integers(1, 9), min_size=1, max_size=12),
           seed=st.integers(0, 2**32 - 1))
    def test_lane_uniforms_are_the_stream_uniforms(self, widths, seed):
        rng = np.random.default_rng(seed)
        widths = np.array(widths, dtype=np.int64)
        keys = rng.integers(0, 2**64, size=widths.size, dtype=np.uint64)
        counters = rng.integers(0, 2**64, size=widths.size, dtype=np.uint64)
        keys[0], counters[-1] = 2**64 - 1, 2**64 - 3      # wrap both ways
        ends = np.cumsum(widths)
        lanes = vectorized._TrialLanes()
        lanes.layout(widths, ends)
        u1, u2 = lanes.uniforms(stream_arguments(keys, counters),
                                ends - widths)
        own = np.repeat(np.arange(widths.size), widths)
        t = (np.arange(ends[-1]) - (ends - widths)[own]).astype(np.uint64)
        two = np.uint64(2)
        np.testing.assert_array_equal(
            u1, stream_uniforms(keys[own], counters[own] + two * t))
        np.testing.assert_array_equal(
            u2, stream_uniforms(keys[own],
                                counters[own] + two * t + np.uint64(1)))
        if (widths == 1).all():
            assert lanes.own is None
        else:
            np.testing.assert_array_equal(lanes.own, own)


class TestInPlaceMix:
    """``_mix64`` rewritten in place is the expression it replaced."""

    @staticmethod
    def expression_form(z):
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))

    def test_values_including_wrap_around(self):
        rng = np.random.default_rng(1)
        z = np.concatenate([
            np.array([0, 1, 2**63, 2**64 - 1, 2**64 - 2, 0x9E3779B97F4A7C15],
                     dtype=np.uint64),
            rng.integers(0, 2**64, size=500, dtype=np.uint64)])
        expected = self.expression_form(z)
        np.testing.assert_array_equal(_mix64(z.copy()), expected)
        scratch = np.empty_like(z)
        np.testing.assert_array_equal(_mix64(z.copy(), scratch), expected)
        block = z[:500].reshape(2, 250).copy()
        assert _mix64(block) is block                      # in place
        np.testing.assert_array_equal(block.ravel(), expected[:500])

    def test_streams_wrap_like_the_scalar_path(self):
        """Keys and counters at the top of the range: the array path
        wraps modulo 2**64 exactly like the per-walker loop's Python ints."""
        for key in (2**64 - 1, 2**64 - 0x9E3779B97F4A7C15, 12345):
            for start in (0, 2**64 - 4):
                stream = WalkerStream(key, start)
                scalar = [u for _ in range(4) for u in stream.next_pair()]
                counters = [(start + i) % 2**64 for i in range(8)]
                batched = stream_uniforms(
                    np.full(8, key, dtype=np.uint64),
                    np.array(counters, dtype=np.uint64))
                np.testing.assert_array_equal(np.array(scalar), batched)
