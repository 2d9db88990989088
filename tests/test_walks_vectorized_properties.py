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
* determinism: same seed ⇒ byte-identical corpus, per backend and across
  backends;
* block trials: paths, lengths, deferred trial counts, stats and cluster
  metrics do not depend on how many trials a superstep evaluates per
  walker -- fixed widths, drawn width sequences, blocks straddling the
  forced-hop cap, and the scratch-budget clamp all emit the bytes of the
  one-trial-per-superstep run.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
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
from repro.runtime import Cluster
from repro.utils.rng import WalkerStream, stream_uniforms, walker_stream_keys
from repro.walks import DistributedWalkEngine, WalkConfig, vectorized
from repro.walks.vectorized import BatchWalkRunner
from repro.walks.walker import WalkStats

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
    assert engine.backend == "vectorized"
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
        # executor leaves behind.
        _, _, engine = run_vectorized(graph, seed, execution="serial")
        runner = engine._batch_runner
        # The final round's batch state is still attached to the runner.
        lengths = np.array([1.0])  # guard: arrays exist and are finite
        assert np.all(runner._S >= 0.0)
        assert np.all(np.isfinite(runner._S))
        # E(H) is a mean of entropies: non-negative, at most log2(max len).
        assert np.all(runner._e_h >= 0.0)
        assert np.all(runner._e_h <= np.log2(80.0))
        # Moment consistency: E(H²) ≥ E(H)² and E(L²) ≥ E(L)² (variances).
        assert np.all(runner._e_h2 - runner._e_h * runner._e_h >= -1e-12)
        assert np.all(runner._e_l2 - runner._e_l * runner._e_l >= -1e-9)
        assert lengths.size == 1

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

    @pytest.mark.parametrize("backend", ("loop", "vectorized"))
    def test_same_seed_same_corpus(self, backend, small_graph):
        outs = []
        for _ in range(2):
            assignment = np.arange(small_graph.num_nodes, dtype=np.int64) % 2
            cluster = Cluster(2, assignment, seed=13)
            cfg = WalkConfig.distger(max_rounds=1, min_rounds=1,
                                     backend=backend)
            result = DistributedWalkEngine(small_graph, cluster, cfg).run()
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
        """Loop and vectorized backends derive walker streams through the
        same repro.utils.rng helpers, from the same cluster root."""
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
        """The loop backend's integer fast path is bit-identical to the
        vectorized uint64 ufunc path, pair by pair."""
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
# Block trials: any width, the same bytes
# ---------------------------------------------------------------------- #

ALL_KERNELS = ("deepwalk", "node2vec", "node2vec-alias", "huge", "huge+")


@contextmanager
def pinned_widths(widths):
    """Replace the width policy by ``widths``, cycled one per superstep.

    The pinned widths bypass the policy's own clamps on purpose: a block
    may overshoot the forced-hop horizon and still must change nothing.
    """
    seq = itertools.cycle(widths)
    with mock.patch.object(BatchWalkRunner, "_block_width",
                           lambda self, spent, hops, alive: next(seq)):
        yield


def block_graph(kind):
    """Rejection-heavy inputs: heavy-tailed R-MAT (HuGE accepts ~1 in 5
    proposals), weighted, and directed with dead ends."""
    if kind == "weighted":
        return rmat(6, edge_factor=6, seed=3).with_random_weights(
            np.random.default_rng(5))
    edges = np.random.default_rng(11).integers(0, 48, size=(160, 2))
    return CSRGraph.from_edges(edges, num_nodes=48, directed=True)


def snapshot(graph, kernel, mode, deferred=False, machines=3, **overrides):
    """Everything one round of walks emits, as comparable bytes/values."""
    kwargs = dict(kernel=kernel, mode=mode, p=0.5, q=2.0, max_length=30,
                  walk_length=12)
    kwargs.update(overrides)
    cfg = WalkConfig(backend="vectorized", **kwargs)
    assignment = np.arange(graph.num_nodes, dtype=np.int64) % machines
    cluster = Cluster(machines, assignment, seed=17)
    engine = DistributedWalkEngine(graph, cluster, cfg)
    runner = BatchWalkRunner(graph, cluster, cfg, engine.kernel,
                             engine._routine_message_bytes)
    sources = np.flatnonzero(graph.degrees > 0)
    stats = WalkStats()
    cap = cfg.walk_length if mode == "routine" else cfg.max_length
    trials = np.zeros((sources.size, cap), dtype=np.int64) if deferred else None
    paths, lengths = runner.run_walks(
        sources, 7 * sources.size + np.arange(sources.size), stats,
        trials_out=trials)
    return {
        "paths": paths.tobytes(), "lengths": lengths.tobytes(),
        "trials": None if trials is None else trials.tobytes(),
        "stats": (stats.total_trials, stats.total_steps),
        "metrics": cluster.metrics.as_dict(),
        "compute": list(cluster.metrics.compute_units),
        "local_steps": list(cluster.metrics.local_steps),
        "matrix": cluster.metrics.message_byte_matrix,
    }, trials


class TestBlockTrials:
    @pytest.mark.parametrize("deferred", (False, True))
    @pytest.mark.parametrize("graph_kind", ("weighted", "directed"))
    @pytest.mark.parametrize("mode", ("incom", "routine"))
    @pytest.mark.parametrize("kernel", ALL_KERNELS)
    def test_width_invariance(self, kernel, mode, graph_kind, deferred):
        graph = block_graph(graph_kind)
        with pinned_widths([1]):
            reference, _ = snapshot(graph, kernel, mode, deferred)
        for width in (2, 3, 8, 33):
            with pinned_widths([width]):
                got, _ = snapshot(graph, kernel, mode, deferred)
            assert got == reference, f"width {width}"
        adaptive, _ = snapshot(graph, kernel, mode, deferred)
        assert adaptive == reference

    @settings(max_examples=25, deadline=None)
    @given(widths=st.lists(st.integers(1, 40), min_size=1, max_size=12),
           kernel=st.sampled_from(("node2vec", "huge", "huge+")),
           deferred=st.booleans())
    def test_any_width_sequence(self, widths, kernel, deferred):
        graph = block_graph("weighted")
        with pinned_widths([1]):
            reference, _ = snapshot(graph, kernel, "incom", deferred)
        with pinned_widths(widths):
            got, _ = snapshot(graph, kernel, "incom", deferred)
        assert got == reference

    @pytest.mark.parametrize("width", (2, 3))
    @pytest.mark.parametrize("cap", (1, 2, 3))
    def test_forced_hop_inside_a_block(self, cap, width):
        """Blocks that straddle ``max_trials_per_step``: (1,3) forces a
        middle lane, (2,2) and (3,3) the first lane of the next block,
        (2,3) and (3,2) a block's last lane."""
        graph = block_graph("weighted")
        with pinned_widths([1]):
            reference, trials = snapshot(graph, "huge", "incom", True,
                                         max_trials_per_step=cap)
        # The scenario is live: some step ran into the forced lane, and
        # none ever needed more trials than the cap allows.
        assert trials.max() == cap + 1
        with pinned_widths([width]):
            got, _ = snapshot(graph, "huge", "incom", True,
                              max_trials_per_step=cap)
        assert got == reference
        with pinned_widths([1]):
            serial_ref, _ = snapshot(graph, "huge", "incom",
                                     max_trials_per_step=cap)
        with pinned_widths([width]):
            serial, _ = snapshot(graph, "huge", "incom",
                                 max_trials_per_step=cap)
        assert serial == serial_ref

    def test_scratch_budget_clamps_the_block(self, monkeypatch):
        graph = block_graph("weighted")
        reference, _ = snapshot(graph, "huge", "incom")
        monkeypatch.setattr(vectorized, "_BLOCK_SCRATCH_LANES", 40)
        seen = []
        policy = BatchWalkRunner._block_width

        def spy(self, spent, hops, alive):
            width = policy(self, spent, hops, alive)
            seen.append((alive, width))
            return width

        monkeypatch.setattr(BatchWalkRunner, "_block_width", spy)
        got, _ = snapshot(graph, "huge", "incom")
        assert got == reference
        assert all(width >= 1 and alive * width <= max(alive, 40)
                   for alive, width in seen)
        # Wide rounds are held at one trial; the thinning tail widens.
        assert any(alive > 40 and width == 1 for alive, width in seen)
        assert any(width > 1 for _, width in seen)

    def test_width_policy(self):
        graph = block_graph("weighted")
        cluster = Cluster(1, np.zeros(graph.num_nodes, dtype=np.int64), seed=0)
        cfg = WalkConfig.distger(max_trials_per_step=12)
        engine = DistributedWalkEngine(graph, cluster, cfg)
        runner = BatchWalkRunner(graph, cluster, cfg, engine.kernel, 0)
        assert runner._block_width(0, 0, 100) == 1        # starts at one
        assert runner._block_width(50, 50, 100) == 1      # never rejected
        assert runner._block_width(75, 10, 100) == 8      # ceil(7.5)
        assert runner._block_width(80, 10, 100) == 8
        assert runner._block_width(900, 10, 100) == 13    # forced horizon
        lanes = vectorized._BLOCK_SCRATCH_LANES
        assert runner._block_width(75, 10, lanes // 2) == 2
        assert runner._block_width(75, 10, lanes + 1) == 1

    @pytest.mark.parametrize("kernel,extra", (
        ("deepwalk", {}), ("node2vec-alias", {}),
        ("node2vec", {"p": 1.0, "q": 1.0}),
    ))
    def test_never_rejecting_kernels_waste_no_uniform(self, kernel, extra,
                                                      monkeypatch):
        drawn = []
        real = vectorized.stream_uniforms

        def counting(keys, counters):
            out = real(keys, counters)
            drawn.append(out.size)
            return out

        monkeypatch.setattr(vectorized, "stream_uniforms", counting)
        got, _ = snapshot(block_graph("directed"), kernel, "incom", **extra)
        trials, steps = got["stats"]
        assert trials == steps > 0
        assert sum(drawn) == 2 * trials
