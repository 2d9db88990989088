"""The compiled MPGP partition kernels against their NumPy twins.

:func:`repro.native.cn_counts` must give the NumPy bitmap gather's
common-neighbour table and :func:`repro.native.mpgp_stream` the Python
scalar stream's placements, integer for integer, on every graph family
(undirected, weighted with zero-weight arcs, directed and asymmetric,
isolated nodes, a star) at every γ and part count; the partitioners built
on them assign identically with and without the library, serially, on a
worker pool and over a spilled CSR.  The wrappers refuse what the C loops
cannot read safely, each with a ``ValueError`` naming the array.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import native
from repro.graph import CSRGraph, powerlaw_cluster, star
from repro.partition import MPGPPartitioner, ParallelMPGPPartitioner
from repro.partition.mpgp import _mpgp_stream
from repro.partition.streaming_orders import get_order
from repro.runtime.executor import ExecutionContext, attach_graph, share_graph
from repro.walks.kernels import common_neighbor_counts_per_arc

GAMMAS = (0.5, 1.0, 2.0, 7.0)
PARTS = (1, 2, 4, 7)


def numpy_path():
    """While active, the partition phase runs its NumPy twins."""
    return mock.patch.object(native, "load", lambda: None)


def table(graph: CSRGraph) -> np.ndarray:
    """A freshly built per-arc table (the graph's memo is bypassed)."""
    graph.__dict__.pop("_arc_common_neighbors", None)
    try:
        return common_neighbor_counts_per_arc(graph)
    finally:
        graph.__dict__.pop("_arc_common_neighbors", None)


@st.composite
def graphs(draw):
    """Small graphs of every family, with isolated nodes and a stream."""
    n = draw(st.integers(min_value=1, max_value=24))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)), max_size=80))
    kind = draw(st.sampled_from(("undirected", "weighted", "directed")))
    weights = None
    if kind == "weighted":
        weights = draw(st.lists(st.sampled_from((0.0, 0.5, 1.0, 2.5)),
                                min_size=len(edges), max_size=len(edges)))
    graph = CSRGraph.from_edges(edges, num_nodes=n, weights=weights,
                                directed=kind == "directed")
    stream = np.array(draw(st.permutations(range(n))), dtype=np.int64)
    return graph, stream


@pytest.mark.usefixtures("compiled_library")
class TestParity:
    @given(graphs(), st.sampled_from(GAMMAS), st.sampled_from(PARTS))
    @settings(max_examples=150, deadline=None)
    def test_table_and_stream(self, drawn, gamma, parts):
        graph, stream = drawn
        parts = min(parts, graph.num_nodes)
        compiled = table(graph)
        with numpy_path():
            reference = table(graph)
            expected = _mpgp_stream(graph, stream, parts, gamma, reference)
        np.testing.assert_array_equal(compiled, reference)
        np.testing.assert_array_equal(
            _mpgp_stream(graph, stream, parts, gamma, compiled), expected)

    @pytest.mark.parametrize("gamma", GAMMAS)
    @pytest.mark.parametrize("parts", PARTS)
    def test_star(self, gamma, parts):
        graph = star(12)
        stream = get_order("dfs+degree", graph, 0)
        compiled = table(graph)
        with numpy_path():
            reference = table(graph)
            expected = _mpgp_stream(graph, stream, parts, gamma, reference)
        np.testing.assert_array_equal(compiled, reference)
        assert not compiled.any()      # a star closes no triangle
        np.testing.assert_array_equal(
            _mpgp_stream(graph, stream, parts, gamma, compiled), expected)

    @pytest.mark.parametrize("gamma", GAMMAS)
    @pytest.mark.parametrize("kind", ("undirected", "weighted", "directed"))
    def test_partitioners_serial_and_pooled(self, kind, gamma, monkeypatch,
                                            tmp_path):
        """Sequential, parallel and pooled parallel MPGP, with the library
        and then without it (in the pool's workers too)."""
        graph = powerlaw_cluster(160, attach=3, triangle_prob=0.3, seed=6)
        if kind == "weighted":
            graph = graph.with_random_weights(np.random.default_rng(4))
        elif kind == "directed":
            graph = graph.as_directed()
        partitioners = (
            MPGPPartitioner(gamma=gamma), ParallelMPGPPartitioner(gamma=gamma),
            ParallelMPGPPartitioner(gamma=gamma,
                                    context=ExecutionContext("process", 2)))
        compiled = [p.partition(graph, 4).assignment for p in partitioners]
        np.testing.assert_array_equal(compiled[1], compiled[2])
        monkeypatch.setattr(native, "load", lambda: None)
        monkeypatch.setenv("CC", "false")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        graph.__dict__.pop("_arc_common_neighbors", None)
        for partitioner, expected in zip(partitioners, compiled):
            np.testing.assert_array_equal(
                partitioner.partition(graph, 4).assignment, expected)

    def test_spilled_csr(self, tmp_path):
        graph = powerlaw_cluster(140, attach=3, seed=3).with_random_weights(
            np.random.default_rng(4))
        group = ExecutionContext(backing="mmap",
                                 spill_dir=str(tmp_path)).shared_group()
        try:
            spilled = attach_graph(share_graph(group, graph))
            assert isinstance(spilled.indices.base, np.memmap)
            for parts, gamma in ((2, 0.5), (4, 2.0), (7, 7.0)):
                np.testing.assert_array_equal(
                    MPGPPartitioner(gamma=gamma).partition(spilled, parts)
                    .assignment,
                    MPGPPartitioner(gamma=gamma).partition(graph, parts)
                    .assignment)
        finally:
            group.close()


class TestRefusals:
    """Refused before the library is touched, so these run without it."""

    graph = powerlaw_cluster(40, attach=3, seed=1)

    def stream_args(self, **override):
        graph = self.graph
        args = dict(indptr=graph.indptr, indices=graph.indices, weights=None,
                    arc_cm=np.zeros(graph.indices.size, dtype=np.int64),
                    stream=np.arange(graph.num_nodes, dtype=np.int64),
                    num_parts=4, gamma=2.0)
        return {**args, **override}

    def test_int32_indices(self):
        indices = self.graph.indices.astype(np.int32)
        with pytest.raises(ValueError, match="cn_counts's indices"):
            native.cn_counts(self.graph.indptr, indices,
                             np.zeros(indices.size, dtype=np.int64),
                             np.arange(indices.size))
        with pytest.raises(ValueError, match="mpgp_stream's indices"):
            native.mpgp_stream(**self.stream_args(indices=indices))

    def test_non_contiguous_stream(self):
        stream = np.arange(2 * self.graph.num_nodes, dtype=np.int64)[::2]
        with pytest.raises(ValueError, match="mpgp_stream's stream"):
            native.mpgp_stream(**self.stream_args(stream=stream))

    @pytest.mark.parametrize("node", (-1, 40))
    def test_stream_node_outside_the_graph(self, node):
        stream = np.array([0, node], dtype=np.int64)
        with pytest.raises(ValueError, match=r"stream holds ids outside "
                                             r"\[0, 40\)"):
            native.mpgp_stream(**self.stream_args(stream=stream))

    def test_table_of_the_wrong_length(self):
        arc_cm = np.zeros(self.graph.indices.size - 1, dtype=np.int64)
        with pytest.raises(ValueError, match="mpgp_stream's arc_cm"):
            native.mpgp_stream(**self.stream_args(arc_cm=arc_cm))

    @pytest.mark.parametrize("parts", (0, -3))
    def test_fewer_than_one_part(self, parts):
        with pytest.raises(ValueError, match="num_parts must be >= 1"):
            native.mpgp_stream(**self.stream_args(num_parts=parts))
