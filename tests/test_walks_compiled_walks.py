"""Compiled whole walks (``huge_walks`` in ``walks/huge_step.c``) against
the NumPy trial lanes and the per-walker loop oracle.

Under ``routine`` and ``incom`` a HuGE kernel with the compiled library
runs each walker from its source to termination in one call -- steps,
revisit counts, InCoM's ``S`` and moments, ``R²`` and the length rule.
Everything it emits must be the lanes' bytes: the round buffers (paths,
lengths, per-step trials and arcs, padding included), each walker's final
``S`` and five moments, and, end to end, corpus, ``WalkStats``,
``walk_machines`` and every ``ClusterMetrics`` counter -- which the loop
oracle must reproduce as well.  The wrapper's boundary checks and the
``log₂`` table run without the library too.
"""

from __future__ import annotations

import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import native
from repro.graph import CSRGraph, rmat, star
from repro.runtime import Cluster
from repro.walks import DistributedWalkEngine, WalkConfig, make_kernel
from repro.walks.vectorized import BatchWalkRunner, WalkBuffers

from oracles.walks import LoopWalkEngine

ROOT = 0x5EED


def zero_weight_rows(rng) -> CSRGraph:
    """Weighted, with every edge at a third of the nodes weighing 0: those
    nodes' rows sum to zero (the proposal falls back to uniform) and
    HuGE never accepts there, so each step from them is a forced hop."""
    n = int(rng.integers(8, 40))
    edges = rng.integers(0, n, size=(3 * n, 2))
    weights = rng.choice([0.25, 1.0, 3.5], size=len(edges))
    zero = rng.random(n) < 0.3
    weights[zero[edges[:, 0]] | zero[edges[:, 1]]] = 0.0
    return CSRGraph.from_edges(edges, num_nodes=n, weights=weights)


def directed(rng) -> CSRGraph:
    """Directed, with dead ends and three isolated nodes at the end."""
    n = int(rng.integers(6, 40))
    edges = rng.integers(0, n, size=(2 * n, 2))
    return CSRGraph.from_edges(edges, num_nodes=n + 3, directed=True)


GRAPHS = {
    "rmat": lambda rng: rmat(5, edge_factor=4,
                             seed=int(rng.integers(1 << 16))),
    "zero-weight rows": zero_weight_rows,
    "directed": directed,
    "star": lambda rng: star(int(rng.integers(2, 14))),
}


def walk_digest(result, cluster):
    """Corpus sha1, ``WalkStats``, ``walk_machines`` and every
    ``ClusterMetrics`` counter of one run."""
    sha1 = hashlib.sha1(np.asarray(result.corpus.tokens).tobytes())
    sha1.update(np.asarray(result.corpus.offsets).tobytes())
    return {"corpus": sha1.hexdigest(), "stats": vars(result.stats),
            "walk_machines": list(result.walk_machines),
            "metrics": vars(cluster.metrics)}


def run(graph, cfg, sources, engine_cls=DistributedWalkEngine):
    """One engine run from every node of ``sources`` (isolated and dead
    ends included) on two machines: ``(digest, buffers, state,
    compiled)`` -- the round buffers and the InCoM ``S`` and moments of
    a direct batch of the same walkers, and whether it ran compiled."""
    assignment = np.arange(graph.num_nodes) % 2
    cluster = Cluster(2, assignment, seed=3)
    digest = walk_digest(engine_cls(graph, cluster, cfg).run(sources),
                         cluster)
    runner = BatchWalkRunner(graph, ROOT, cfg, make_kernel(cfg, graph))
    buffers = runner.run_walks(sources, np.arange(sources.size) + 7)
    state = runner._state.copy() if cfg.mode == "incom" else None
    return digest, buffers, state, runner.kernel.resolves_steps


def lanes():
    """Kernels built inside this context run the NumPy trial lanes."""
    return mock.patch.object(native, "load", return_value=None)


def bits(array: np.ndarray) -> bytes:
    return np.ascontiguousarray(array).tobytes()


class TestWholeWalkParity:
    @settings(max_examples=80, deadline=None)
    @given(family=st.sampled_from(sorted(GRAPHS)),
           kernel=st.sampled_from(("huge", "huge+")),
           mode=st.sampled_from(("incom", "routine")),
           mu=st.sampled_from((0.5, 0.82, 1.0)),
           min_length=st.sampled_from((1, 5)),
           long=st.booleans(),
           max_trials=st.sampled_from((1, 32)),
           walk_length=st.sampled_from((1, 2, 80)),
           seed=st.integers(0, 2**32 - 1))
    def test_compiled_is_the_lanes_and_the_loop(
            self, step_resolver, family, kernel, mode, mu, min_length, long,
            max_trials, walk_length, seed):
        graph = GRAPHS[family](np.random.default_rng(seed))
        cfg = WalkConfig(kernel=kernel, mode=mode, mu=mu,
                         min_length=min_length,
                         max_length=200 if long else min_length,
                         max_trials_per_step=max_trials,
                         walk_length=walk_length, walks_per_node=2,
                         min_rounds=1, max_rounds=2)
        sources = np.arange(graph.num_nodes, dtype=np.int64)
        digest, buffers, state, compiled = run(graph, cfg, sources)
        assert compiled
        with lanes():
            lanes_digest, lanes_buffers, lanes_state, compiled = run(
                graph, cfg, sources)
        assert not compiled
        assert digest == lanes_digest
        for ours, theirs in zip(buffers, lanes_buffers):
            assert ours.dtype == theirs.dtype
            assert bits(ours) == bits(theirs)
        if mode == "incom":
            assert bits(state) == bits(lanes_state)
        loop_digest = run(graph, cfg, sources, engine_cls=LoopWalkEngine)[0]
        assert loop_digest == digest

    @pytest.mark.parametrize("mode", ("incom", "routine", "fullpath"))
    def test_one_call_per_batch(self, step_resolver, mode):
        """``incom`` and ``routine`` make one ``huge_walks`` call and
        resolve no single step; ``fullpath`` keeps the superstep loop."""
        graph = rmat(6, edge_factor=4, seed=2)
        cfg = WalkConfig(kernel="huge", mode=mode, walk_length=20)
        runner = BatchWalkRunner(graph, ROOT, cfg, make_kernel(cfg, graph))
        sources = np.flatnonzero(graph.degrees > 0)
        with mock.patch.object(native, "huge_walks",
                               wraps=native.huge_walks) as walks, \
                mock.patch.object(native, "resolve_steps",
                                  wraps=native.resolve_steps) as steps:
            runner.run_walks(sources, np.arange(sources.size))
        whole = mode != "fullpath"
        assert walks.call_count == int(whole)
        assert (steps.call_count == 0) == whole


def test_log2_table_is_numpy_log2():
    """The compiled walks read ``log₂ L`` from the runner's table: every
    entry ``L = 1 .. max_length`` is ``np.log2`` of ``L`` bit for bit."""
    graph = rmat(5, edge_factor=4, seed=1)
    for max_length in (1, 80, 5000):
        cfg = WalkConfig(max_length=max_length, min_length=1)
        runner = BatchWalkRunner(graph, ROOT, cfg, make_kernel(cfg, graph))
        table = runner._log2_of
        assert table.size == max_length + 1
        for length in range(1, max_length + 1):
            assert table[length] == np.log2(np.float64(length))


class TestBoundary:
    """ctypes checks nothing: the wrapper refuses, before anything is
    written, every array of the wrong dtype, size or layout and every
    source outside the graph.  The checks precede loading the library."""

    @pytest.fixture
    def call(self):
        graph = rmat(5, edge_factor=4, seed=1)
        kernel = make_kernel(WalkConfig(kernel="huge"), graph)
        n, cap = 4, 6
        out = WalkBuffers(np.full((n, cap), 99, dtype=np.int64),
                          np.full(n, 99, dtype=np.int64),
                          np.full((n, cap), 99, dtype=np.int32),
                          np.full((n, cap), 99, dtype=np.int64))
        kwargs = dict(
            indptr=graph.indptr, indices=graph.indices, cumsum=None,
            accept=kernel.tables["arc_accept"],
            sources=np.arange(n, dtype=np.int64),
            args=np.zeros(n, dtype=np.uint64), horizon=3, out=out,
            min_length=1, mu=0.9,
            gain=np.zeros(cap + 1), log2_of=np.zeros(cap + 1),
            state=np.zeros((6, n)))
        return graph, kwargs

    def refused(self, kwargs, match):
        written = [buffer for buffer in (*kwargs["out"], kwargs["state"])
                   if buffer is not None]
        before = [bits(buffer) for buffer in written]
        with mock.patch.object(native, "load") as load, \
                pytest.raises(ValueError, match=match):
            native.huge_walks(**kwargs)
        load.assert_not_called()
        assert [bits(buffer) for buffer in written] == before

    def test_wrong_dtype_size_or_layout(self, call):
        graph, kwargs = call
        out = kwargs["out"]
        wide = np.zeros((4, 12), dtype=np.int64)
        for bad in (dict(sources=kwargs["sources"].astype(np.int32)),
                    dict(args=kwargs["args"].astype(np.int64)),
                    dict(indices=graph.indices[:-1]),
                    dict(indptr=graph.indptr[::2]),
                    dict(accept=kwargs["accept"].astype(np.float32)),
                    dict(cumsum=np.zeros(3)),
                    dict(gain=np.zeros(6)),
                    dict(log2_of=np.zeros(8)),
                    dict(state=np.zeros((4, 6)).T),
                    dict(out=out._replace(trials=out.arcs)),
                    dict(out=out._replace(paths=wide[:, ::2])),
                    dict(out=out._replace(lengths=out.lengths[:3]))):
            self.refused({**kwargs, **bad}, "walks expects")

    @pytest.mark.parametrize("node", (-1, "num_nodes"))
    def test_source_outside_the_graph(self, call, node):
        graph, kwargs = call
        node = graph.num_nodes if node == "num_nodes" else node
        sources = kwargs["sources"].copy()
        sources[2] = node
        self.refused({**kwargs, "sources": sources},
                     f"walker 2 starts at node {node}, outside "
                     rf"\[0, {graph.num_nodes}\)")

    def test_partial_measurement(self, call):
        _, kwargs = call
        self.refused({**kwargs, "state": None}, "take gain, log2_of")


def test_trials_fit_their_int32_record():
    """A step's trials, forced one included, are recorded as int32: the
    cap is refused where ``max_trials_per_step + 1`` would not fit."""
    assert WalkConfig(max_trials_per_step=2**31 - 2)
    for cap in (2**31 - 1, 2**31, 2**40):
        with pytest.raises(ValueError, match="max_trials_per_step"):
            WalkConfig(max_trials_per_step=cap)
