"""Reference parity: the lock-step walk engine vs the per-walker loop.

Under the shared walker RNG protocol (per-walker counter streams from
:mod:`repro.utils.rng`), the batched engine must reproduce the per-walker
loop of :class:`oracles.walks.LoopWalkEngine` *exactly*: same corpus,
same walk lengths, same termination decisions, same trial counts, and the
same simulated cluster accounting (compute units, local steps, message
counts/bytes/matrix).  The suite runs every kernel in every walk mode
(HuGE-D's ``fullpath`` included) over undirected, weighted and directed
graphs, and checks the
distribution oracles of :mod:`oracles.walks` against both engines alike.
The loop runs one trial at a time, so it is also the oracle for block
trials: whatever width the batched engine evaluates per superstep, it
must land on the loop's bytes.
"""

from __future__ import annotations

import hashlib
from unittest import mock

import numpy as np
import pytest

from repro.graph import CSRGraph, powerlaw_cluster, ring_of_cliques, rmat
from repro.partition import MPGPPartitioner, WorkloadBalancePartitioner
from repro.runtime import Cluster
from repro.runtime.executor import ExecutionContext
from repro.walks import DistributedWalkEngine, WalkConfig
from repro.walks.vectorized import BatchWalkRunner

from oracles.walks import LoopWalkEngine, huge_effective_transition_matrix

ALL_KERNELS = ("deepwalk", "node2vec", "huge", "huge+")
VECTOR_MODES = ("incom", "routine", "fullpath")
#: node2vec's two biased regimes: BFS-like (p < 1, q > 1: outward hops
#: are the rejected ones) and DFS-like (p > 1, q < 1: the return hop is).
#: Under the default p = q = 1 the kernel never rejects.
NODE2VEC_BIASES = ((0.5, 2.0), (2.0, 0.5))


def run_engine(graph, cfg, machines=2, seed=9, partitioner=None,
               engine_cls=DistributedWalkEngine):
    part = (partitioner or MPGPPartitioner()).partition(graph, machines)
    cluster = Cluster(machines, part.assignment, seed=seed)
    engine = engine_cls(graph, cluster, cfg)
    return engine.run(), cluster, engine


def run_loop(graph, cfg, **kwargs):
    """:func:`run_engine` on the per-walker loop oracle."""
    return run_engine(graph, cfg, engine_cls=LoopWalkEngine, **kwargs)


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


def config(kernel, mode, **overrides):
    kwargs = dict(kernel=kernel, mode=mode, max_rounds=2, min_rounds=1)
    if mode == "routine":
        kwargs.update(walk_length=15, walks_per_node=2)
    kwargs.update(overrides)
    return WalkConfig(**kwargs)


class TestBackendParity:
    @pytest.mark.parametrize("mode", VECTOR_MODES)
    @pytest.mark.parametrize("kernel", ALL_KERNELS)
    def test_all_kernels_and_modes(self, kernel, mode, small_graph):
        cfg = config(kernel, mode)
        a, ca, _ = run_loop(small_graph, cfg)
        b, cb, _ = run_engine(small_graph, cfg)
        assert_runs_identical(a, ca, b, cb)

    @pytest.mark.parametrize("kernel", ALL_KERNELS)
    def test_weighted_graph(self, kernel):
        rng = np.random.default_rng(3)
        graph = powerlaw_cluster(100, attach=3, seed=1).with_random_weights(rng)
        cfg = config(kernel, "incom", p=0.5, q=2.0)
        a, ca, _ = run_loop(graph, cfg, machines=3)
        b, cb, _ = run_engine(graph, cfg, machines=3)
        assert_runs_identical(a, ca, b, cb)

    @pytest.mark.parametrize("kernel", ("deepwalk", "node2vec", "huge"))
    def test_directed_dead_ends(self, kernel):
        graph = CSRGraph.from_edges(
            [(0, 1), (1, 2), (2, 3), (0, 4), (4, 2)], directed=True)
        cfg = config(kernel, "incom", max_rounds=1)
        a, ca, _ = run_loop(graph, cfg, machines=1)
        b, cb, _ = run_engine(graph, cfg, machines=1)
        assert_runs_identical(a, ca, b, cb)

    @pytest.mark.parametrize("p,q", NODE2VEC_BIASES)
    @pytest.mark.parametrize("mode", VECTOR_MODES)
    def test_biased_node2vec_every_mode(self, mode, p, q, small_graph):
        cfg = config("node2vec", mode, p=p, q=q)
        a, ca, _ = run_loop(small_graph, cfg)
        b, cb, _ = run_engine(small_graph, cfg)
        assert a.stats.total_trials > a.stats.total_steps
        assert_runs_identical(a, ca, b, cb)

    def test_weighted_graph_dfs_node2vec(self):
        rng = np.random.default_rng(3)
        graph = powerlaw_cluster(100, attach=3, seed=1).with_random_weights(rng)
        cfg = config("node2vec", "incom", p=2.0, q=0.5)
        a, ca, _ = run_loop(graph, cfg, machines=3)
        b, cb, _ = run_engine(graph, cfg, machines=3)
        assert_runs_identical(a, ca, b, cb)

    def test_node2vec_biased_parameters(self, medium_graph):
        for p, q in ((0.25, 4.0), (4.0, 0.25)):
            cfg = config("node2vec", "incom", p=p, q=q)
            a, ca, _ = run_loop(medium_graph, cfg, machines=4)
            b, cb, _ = run_engine(medium_graph, cfg, machines=4)
            assert_runs_identical(a, ca, b, cb)

    def test_multiple_rounds_and_kl_rule(self, medium_graph):
        """The walk-count rule sees identical corpora, so both engines
        run the same number of rounds."""
        cfg = config("huge", "incom", max_rounds=6, delta=0.05)
        a, ca, _ = run_loop(medium_graph, cfg,
                            partitioner=WorkloadBalancePartitioner())
        b, cb, _ = run_engine(medium_graph, cfg,
                              partitioner=WorkloadBalancePartitioner())
        assert a.stats.rounds == b.stats.rounds
        assert_runs_identical(a, ca, b, cb)

    def test_forced_hop_path(self, star_graph):
        """A tiny trial cap exercises the forced-progress hop in both
        engines identically (HuGE rejects often on hub/leaf ratios)."""
        cfg = config("huge", "incom", max_trials_per_step=1)
        a, ca, _ = run_loop(star_graph, cfg)
        b, cb, _ = run_engine(star_graph, cfg)
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
        cfg = config(kernel, mode, p=0.5, q=2.0, max_length=30)
        a, ca, _ = run_loop(graph, cfg, machines=3)
        with pinned_widths(widths):
            b, cb, _ = run_engine(graph, cfg, machines=3)
        assert_runs_identical(a, ca, b, cb)

    @pytest.mark.parametrize("widths", ([1], [2], [3], [8], [33],
                                        [1, 6, 2], [9, 1, 1, 40, 2, 3, 5]))
    @pytest.mark.parametrize("mode", VECTOR_MODES)
    def test_pinned_widths_dfs_node2vec(self, mode, widths):
        """node2vec's DFS-like regime rejects the return hop instead of
        the outward ones, so its blocks end on other lanes."""
        graph = rmat(6, edge_factor=6, seed=3).with_random_weights(
            np.random.default_rng(5))
        cfg = config("node2vec", mode, p=2.0, q=0.5, max_length=30)
        a, ca, _ = run_loop(graph, cfg, machines=3)
        with pinned_widths(widths):
            b, cb, _ = run_engine(graph, cfg, machines=3)
        assert_runs_identical(a, ca, b, cb)

    @pytest.mark.parametrize("widths", ([2], [3], [1, 3], [4, 1, 2]))
    @pytest.mark.parametrize("cap", (1, 2, 3))
    def test_forced_hop_straddling_a_block(self, cap, widths):
        graph = CSRGraph.from_edges(
            np.random.default_rng(11).integers(0, 48, size=(160, 2)),
            num_nodes=48, directed=True)
        cfg = config("huge", "incom", max_trials_per_step=cap)
        a, ca, _ = run_loop(graph, cfg, machines=2)
        with pinned_widths(widths):
            b, cb, _ = run_engine(graph, cfg, machines=2)
        # Forced hops happened: more trials than steps, yet never more
        # than cap + 1 per step.
        assert a.stats.total_steps < a.stats.total_trials
        assert a.stats.total_trials <= (cap + 1) * a.stats.total_steps
        assert_runs_identical(a, ca, b, cb)


class TestEngineSelection:
    @pytest.mark.parametrize("execution", ("serial", "process", "pipeline"))
    def test_fullpath_runs_the_rounds(self, small_graph, execution):
        """HuGE-D's fullpath runs the lock-step rounds under every
        execution, and lands on the loop oracle's bytes."""
        cfg = WalkConfig.huge_d(max_rounds=1, min_rounds=1,
                                context=ExecutionContext(execution, 2))
        a, ca, _ = run_loop(small_graph, cfg)
        with mock.patch.object(DistributedWalkEngine, "_run_rounds",
                               autospec=True,
                               side_effect=DistributedWalkEngine._run_rounds
                               ) as rounds:
            b, cb, engine = run_engine(small_graph, cfg)
        rounds.assert_called_once()
        assert engine.execution == execution
        assert_runs_identical(a, ca, b, cb)


def walk_digest(result, cluster):
    """Everything a walk run emits: corpus sha1, ``WalkStats``,
    ``walk_machines`` and every ``ClusterMetrics`` counter."""
    corpus = result.corpus
    sha1 = hashlib.sha1(np.asarray(corpus.tokens).tobytes())
    sha1.update(np.asarray(corpus.offsets).tobytes())
    return {"corpus": sha1.hexdigest(), "stats": vars(result.stats),
            "walk_machines": list(result.walk_machines),
            "metrics": vars(cluster.metrics)}


class TestResolverParity:
    """The HuGE kernels' compiled library (whole walks in every mode,
    ``fullpath`` cut to length afterwards) against the NumPy trial lanes,
    end to end: the same bytes under every execution, in every mode and
    through a dynamic resample."""

    @pytest.mark.parametrize("execution", ("serial", "process", "pipeline"))
    @pytest.mark.parametrize("mode", ("incom", "routine", "fullpath"))
    @pytest.mark.parametrize("kernel", ("huge", "huge+"))
    @pytest.mark.parametrize("graph_kind", ("weighted", "directed"))
    def test_resolver_is_the_lanes(self, compiled_library, request, graph_kind,
                                   kernel, mode, execution):
        graph = (powerlaw_cluster(90, attach=3, seed=2).with_random_weights(
                     np.random.default_rng(4))
                 if graph_kind == "weighted" else
                 CSRGraph.from_edges(
                     np.random.default_rng(11).integers(0, 60, size=(200, 2)),
                     num_nodes=60, directed=True))
        cfg = config(kernel, mode, max_trials_per_step=4,
                     context=ExecutionContext(execution, 2))
        resolved, cluster, engine = run_engine(graph, cfg, machines=3)
        assert engine.kernel.resolves_walks
        request.getfixturevalue("lanes_path")
        lanes, lanes_cluster, engine = run_engine(graph, cfg, machines=3)
        assert not engine.kernel.resolves_walks
        assert walk_digest(resolved, cluster) == walk_digest(lanes,
                                                             lanes_cluster)

    def test_dynamic_resample(self, compiled_library, request):
        from repro.api import apply_edge_stream, embed_graph
        from repro.dynamic.delta import random_churn

        graph = powerlaw_cluster(60, attach=3, triangle_prob=0.3, seed=4)
        churn = random_churn(graph, 0.05, seed=1)
        kwargs = dict(num_machines=2, dim=8, epochs=1, seed=7)

        def update():
            prev = embed_graph(graph, **kwargs)
            result = apply_edge_stream(graph, churn, prev, audit="arc",
                                       **kwargs)
            assert result.stats["stale_walks"] > 0
            return (np.asarray(result.corpus.tokens).tobytes(),
                    np.asarray(result.corpus.offsets).tobytes(),
                    result.embeddings.tobytes(), result.stats)

        resolved = update()
        request.getfixturevalue("lanes_path")
        assert update() == resolved


class TestReferenceOracles:
    """Both engines must follow the paper's exact distributions."""

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

    def test_walks_follow_edges_both_engines(self, small_graph):
        cfg = WalkConfig.distger(max_rounds=1, min_rounds=1)
        for engine_cls in (LoopWalkEngine, DistributedWalkEngine):
            result, _, _ = run_engine(small_graph, cfg,
                                      engine_cls=engine_cls)
            for walk in result.corpus.walks:
                for u, v in zip(walk[:-1], walk[1:]):
                    assert small_graph.has_edge(int(u), int(v))
