"""Reference parity: the vectorized InCoM engine vs the loop engine.

Under the shared walker RNG protocol (per-walker counter streams from
:mod:`repro.utils.rng`), the batched engine must reproduce the per-walker
loop engine *exactly*: same corpus, same walk lengths, same termination
decisions, same trial counts, and the same simulated cluster accounting
(compute units, local steps, message counts/bytes/matrix).  The suite runs
every kernel in both vectorizable modes over undirected, weighted and
directed graphs, and checks the oracles of :mod:`repro.walks.reference`
against both backends alike.  The loop engine runs one trial at a time,
so it is also the oracle for block trials: whatever width the batched
engine evaluates per superstep, it must land on the loop engine's bytes.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from repro.graph import CSRGraph, powerlaw_cluster, ring_of_cliques, rmat
from repro.partition import MPGPPartitioner, WorkloadBalancePartitioner
from repro.runtime import Cluster
from repro.walks import (
    DistributedWalkEngine,
    WalkConfig,
    huge_effective_transition_matrix,
)
from repro.walks.vectorized import BatchWalkRunner

ALL_KERNELS = ("deepwalk", "node2vec", "node2vec-alias", "huge", "huge+")
VECTOR_MODES = ("incom", "routine")


def run_engine(graph, cfg, machines=2, seed=9, partitioner=None):
    part = (partitioner or MPGPPartitioner()).partition(graph, machines)
    cluster = Cluster(machines, part.assignment, seed=seed)
    engine = DistributedWalkEngine(graph, cluster, cfg)
    return engine.run(), cluster, engine


def assert_runs_identical(a, cluster_a, b, cluster_b):
    """Corpus, stats and metrics equality between two walk runs."""
    assert len(a.corpus.walks) == len(b.corpus.walks)
    for wa, wb in zip(a.corpus.walks, b.corpus.walks):
        np.testing.assert_array_equal(wa, wb)
    np.testing.assert_array_equal(a.corpus.occurrences, b.corpus.occurrences)
    assert a.stats.walk_lengths == b.stats.walk_lengths
    assert a.stats.total_walks == b.stats.total_walks
    assert a.stats.total_steps == b.stats.total_steps
    assert a.stats.total_trials == b.stats.total_trials
    assert a.stats.rounds == b.stats.rounds
    assert a.stats.kl_trace == b.stats.kl_trace
    assert a.walk_machines == b.walk_machines
    ma, mb = cluster_a.metrics, cluster_b.metrics
    assert ma.compute_units == mb.compute_units
    assert ma.local_steps == mb.local_steps
    assert ma.messages_sent == mb.messages_sent
    assert ma.message_bytes == mb.message_bytes
    assert ma.message_byte_matrix == mb.message_byte_matrix


def configs(kernel, mode, **overrides):
    kwargs = dict(kernel=kernel, mode=mode, max_rounds=2, min_rounds=1)
    if mode == "routine":
        kwargs.update(walk_length=15, walks_per_node=2)
    kwargs.update(overrides)
    loop = WalkConfig(backend="loop", **kwargs)
    vec = WalkConfig(backend="vectorized", **kwargs)
    return loop, vec


class TestBackendParity:
    @pytest.mark.parametrize("mode", VECTOR_MODES)
    @pytest.mark.parametrize("kernel", ALL_KERNELS)
    def test_all_kernels_and_modes(self, kernel, mode, small_graph):
        loop_cfg, vec_cfg = configs(kernel, mode)
        a, ca, _ = run_engine(small_graph, loop_cfg)
        b, cb, _ = run_engine(small_graph, vec_cfg)
        assert_runs_identical(a, ca, b, cb)

    @pytest.mark.parametrize("kernel", ALL_KERNELS)
    def test_weighted_graph(self, kernel):
        rng = np.random.default_rng(3)
        graph = powerlaw_cluster(100, attach=3, seed=1).with_random_weights(rng)
        loop_cfg, vec_cfg = configs(kernel, "incom", p=0.5, q=2.0)
        a, ca, _ = run_engine(graph, loop_cfg, machines=3)
        b, cb, _ = run_engine(graph, vec_cfg, machines=3)
        assert_runs_identical(a, ca, b, cb)

    @pytest.mark.parametrize("kernel", ("deepwalk", "node2vec", "huge"))
    def test_directed_dead_ends(self, kernel):
        graph = CSRGraph.from_edges(
            [(0, 1), (1, 2), (2, 3), (0, 4), (4, 2)], directed=True)
        loop_cfg, vec_cfg = configs(kernel, "incom", max_rounds=1)
        a, ca, _ = run_engine(graph, loop_cfg, machines=1)
        b, cb, _ = run_engine(graph, vec_cfg, machines=1)
        assert_runs_identical(a, ca, b, cb)

    def test_node2vec_biased_parameters(self, medium_graph):
        for p, q in ((0.25, 4.0), (4.0, 0.25)):
            loop_cfg, vec_cfg = configs("node2vec", "incom", p=p, q=q)
            a, ca, _ = run_engine(medium_graph, loop_cfg, machines=4)
            b, cb, _ = run_engine(medium_graph, vec_cfg, machines=4)
            assert_runs_identical(a, ca, b, cb)

    def test_multiple_rounds_and_kl_rule(self, medium_graph):
        """The walk-count rule sees identical corpora, so both backends
        run the same number of rounds."""
        loop_cfg, vec_cfg = configs("huge", "incom", max_rounds=6,
                                    delta=0.05)
        a, ca, _ = run_engine(medium_graph, loop_cfg,
                              partitioner=WorkloadBalancePartitioner())
        b, cb, _ = run_engine(medium_graph, vec_cfg,
                              partitioner=WorkloadBalancePartitioner())
        assert a.stats.rounds == b.stats.rounds
        assert_runs_identical(a, ca, b, cb)

    def test_forced_hop_path(self, star_graph):
        """A tiny trial cap exercises the forced-progress hop in both
        backends identically (HuGE rejects often on hub/leaf ratios)."""
        loop_cfg, vec_cfg = configs("huge", "incom", max_trials_per_step=1)
        a, ca, _ = run_engine(star_graph, loop_cfg)
        b, cb, _ = run_engine(star_graph, vec_cfg)
        assert_runs_identical(a, ca, b, cb)


def pinned_widths(widths):
    """Patch the widths policy: live walker ``j`` of every superstep takes
    ``widths[j % len(widths)]`` lanes (one entry = a rectangular block)."""
    widths = np.asarray(widths, dtype=np.int64)

    def policy(self, cur, waited, spent, hops):
        return np.resize(widths, cur.size)

    return mock.patch.object(BatchWalkRunner, "_block_width", policy)


class TestBlockWidthParity:
    """The batched engine at any block widths ≡ the per-walker loop."""

    @pytest.mark.parametrize("widths", ([1], [2], [3], [8], [33],
                                        [1, 6, 2], [9, 1, 1, 40, 2, 3, 5]))
    @pytest.mark.parametrize("mode", VECTOR_MODES)
    @pytest.mark.parametrize("kernel", ALL_KERNELS)
    def test_pinned_widths_match_loop(self, kernel, mode, widths):
        graph = rmat(6, edge_factor=6, seed=3).with_random_weights(
            np.random.default_rng(5))
        loop_cfg, vec_cfg = configs(kernel, mode, p=0.5, q=2.0,
                                    max_length=30)
        a, ca, _ = run_engine(graph, loop_cfg, machines=3)
        with pinned_widths(widths):
            b, cb, _ = run_engine(graph, vec_cfg, machines=3)
        assert_runs_identical(a, ca, b, cb)

    @pytest.mark.parametrize("widths", ([2], [3], [1, 3], [4, 1, 2]))
    @pytest.mark.parametrize("cap", (1, 2, 3))
    def test_forced_hop_straddling_a_block(self, cap, widths):
        graph = CSRGraph.from_edges(
            np.random.default_rng(11).integers(0, 48, size=(160, 2)),
            num_nodes=48, directed=True)
        loop_cfg, vec_cfg = configs("huge", "incom", max_trials_per_step=cap)
        a, ca, _ = run_engine(graph, loop_cfg, machines=2)
        with pinned_widths(widths):
            b, cb, _ = run_engine(graph, vec_cfg, machines=2)
        # Forced hops happened: more trials than steps, yet never more
        # than cap + 1 per step.
        assert a.stats.total_steps < a.stats.total_trials
        assert a.stats.total_trials <= (cap + 1) * a.stats.total_steps
        assert_runs_identical(a, ca, b, cb)


class TestBackendResolution:
    def test_auto_resolves_vectorized_for_incom_and_routine(self):
        assert WalkConfig.distger().resolved_backend() == "vectorized"
        assert WalkConfig.routine("deepwalk").resolved_backend() == "vectorized"

    def test_auto_resolves_loop_for_fullpath(self):
        cfg = WalkConfig.huge_d()
        assert cfg.resolved_backend() == "loop"

    def test_explicit_vectorized_fullpath_rejected(self):
        with pytest.raises(ValueError, match="fullpath"):
            WalkConfig(mode="fullpath", backend="vectorized")

    def test_invalid_backend_names(self):
        with pytest.raises(ValueError, match="backend"):
            WalkConfig(backend="gpu")

    def test_fullpath_auto_equals_explicit_loop(self, small_graph):
        """backend='auto' on fullpath takes the loop path bit-for-bit."""
        base = dict(max_rounds=1, min_rounds=1)
        a, ca, ea = run_engine(small_graph, WalkConfig.huge_d(**base))
        b, cb, eb = run_engine(small_graph,
                               WalkConfig.huge_d(backend="loop", **base))
        assert ea.backend == eb.backend == "loop"
        assert_runs_identical(a, ca, b, cb)


class TestReferenceOracles:
    """Both backends must follow the paper's exact distributions."""

    def test_huge_empirical_matches_effective_transitions(self, small_graph):
        expected = huge_effective_transition_matrix(small_graph)
        cfg = WalkConfig.distger(max_rounds=4, min_rounds=4, delta=1e-12,
                                 mu=0.0)  # long walks: more transitions
        result, _, _ = run_engine(small_graph, cfg, machines=1, seed=123)
        counts = np.zeros_like(expected)
        for walk in result.corpus.walks:
            for u, v in zip(walk[:-1], walk[1:]):
                counts[int(u), int(v)] += 1.0
        rows = counts.sum(axis=1)
        observed = np.divide(counts, rows[:, None],
                             out=np.zeros_like(counts), where=rows[:, None] > 0)
        heavy = rows >= 200  # only rows with enough mass to compare
        assert heavy.any()
        np.testing.assert_allclose(observed[heavy], expected[heavy], atol=0.08)

    def test_walks_follow_edges_both_backends(self, small_graph):
        for backend in ("loop", "vectorized"):
            cfg = WalkConfig.distger(
                max_rounds=1, min_rounds=1, backend=backend)
            result, _, _ = run_engine(small_graph, cfg)
            for walk in result.corpus.walks:
                for u, v in zip(walk[:-1], walk[1:]):
                    assert small_graph.has_edge(int(u), int(v))
