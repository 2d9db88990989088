"""Delta-CSR property suite: the overlay must equal a rebuild.

The whole dynamic-update path leans on one identity: applying an edge
stream through :class:`~repro.dynamic.delta.DeltaCSR` and compacting
must produce **the same bytes** as throwing the merged logical edge list
at ``CSRGraph.from_edges``.  This suite pins that identity across
directed/undirected and weighted/unweighted bases under randomized
insert/delete/re-insert streams (hypothesis), plus the stream-format and
overlay-semantics unit contracts the orchestration relies on.
"""

from __future__ import annotations

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dynamic.delta import DeltaCSR, EdgeStream, random_churn
from repro.graph import powerlaw_cluster
from repro.graph.csr import CSRGraph


def assert_graphs_byte_equal(a: CSRGraph, b: CSRGraph) -> None:
    assert a.directed == b.directed
    assert a.num_nodes == b.num_nodes
    np.testing.assert_array_equal(a.indptr, b.indptr)
    np.testing.assert_array_equal(a.indices, b.indices)
    assert a.indptr.dtype == b.indptr.dtype
    assert a.indices.dtype == b.indices.dtype
    if a.is_weighted or b.is_weighted:
        assert a.is_weighted and b.is_weighted
        assert a.weights.dtype == b.weights.dtype
        assert np.array_equal(a.weights, b.weights)


# --------------------------------------------------------------------- #
# EdgeStream format
# --------------------------------------------------------------------- #


class TestEdgeStream:
    def test_from_edits_order_and_counts(self):
        stream = EdgeStream.from_edits(inserts=[(0, 1), (2, 3)],
                                       deletes=[(4, 5)],
                                       insert_weights=[2.0, 3.0])
        assert len(stream) == 3
        assert stream.num_inserts == 2
        assert stream.num_deletes == 1
        ops = list(stream)
        assert ops[0] == (-1, 4, 5, 1.0)  # deletes first
        assert ops[1] == (1, 0, 1, 2.0)
        assert ops[2] == (1, 2, 3, 3.0)

    def test_text_round_trip(self):
        text = "# churn step\n+ 0 1\n- 2 3\n+ 4 5 2.5\n\n"
        stream = EdgeStream.from_text(io.StringIO(text))
        assert list(stream) == [(1, 0, 1, 1.0), (-1, 2, 3, 1.0),
                                (1, 4, 5, 2.5)]
        again = EdgeStream.from_text(io.StringIO(stream.to_text()))
        assert list(again) == list(stream)

    def test_text_rejects_garbage(self):
        with pytest.raises(ValueError, match="expected"):
            EdgeStream.from_text(io.StringIO("* 1 2\n"))
        with pytest.raises(ValueError, match="no weight"):
            EdgeStream.from_text(io.StringIO("- 1 2 3.0\n"))

    def test_validation(self):
        with pytest.raises(ValueError, match="parallel"):
            EdgeStream(np.array([0]), np.array([1, 2]), np.array([1]))
        with pytest.raises(ValueError, match="ops"):
            EdgeStream(np.array([0]), np.array([1]), np.array([2]))
        with pytest.raises(ValueError, match="non-negative"):
            EdgeStream(np.array([-1]), np.array([1]), np.array([1]))

    @pytest.mark.parametrize("bad", (float("nan"), float("inf"),
                                     float("-inf"), -0.5))
    def test_insert_weights_must_be_finite_and_non_negative(self, bad):
        """A bad insert weight is refused where it enters, naming the
        stream entry -- not silently dropped on an unweighted base, nor
        reported by CSR arc index at ``compact()`` on a weighted one."""
        with pytest.raises(ValueError, match=r"op 2 \(\+ 4 5\)"):
            EdgeStream.from_edits(inserts=[(0, 1), (4, 5)],
                                  deletes=[(2, 3)],
                                  insert_weights=[1.0, bad])
        with pytest.raises(ValueError, match="line 3: insert weight"):
            EdgeStream.from_text(io.StringIO(
                f"+ 0 1\n# comment\n+ 4 5 {bad!r}\n"))
        # Deletions carry no weight to check; zero is a valid weight.
        EdgeStream(np.array([0, 1]), np.array([1, 2]), np.array([-1, 1]),
                   np.array([bad, 0.0]))

    def test_random_churn_deterministic(self):
        graph = powerlaw_cluster(60, attach=3, triangle_prob=0.3, seed=4)
        a = random_churn(graph, 0.05, seed=9)
        b = random_churn(graph, 0.05, seed=9)
        assert list(a) == list(b)
        assert len(a) == round(0.05 * graph.num_edges)
        # deletions name real edges, inserts name real non-edges
        for op, u, v, _ in a:
            assert graph.has_edge(u, v) == (op == -1)


# --------------------------------------------------------------------- #
# Overlay semantics
# --------------------------------------------------------------------- #


class TestDeltaSemantics:
    def base(self, directed=False):
        return CSRGraph.from_edges([(0, 1), (1, 2), (2, 3), (0, 3)],
                                   directed=directed)

    def test_insert_delete_query(self):
        delta = DeltaCSR(self.base())
        assert delta.has_edge(0, 1)
        delta.delete(0, 1)
        assert not delta.has_edge(0, 1)
        assert not delta.has_edge(1, 0)  # undirected tombstone covers both
        delta.insert(1, 3)
        assert delta.has_edge(3, 1)
        np.testing.assert_array_equal(delta.neighbors(1), [2, 3])
        assert delta.degree(1) == 2

    def test_delete_absent_edge_leaves_no_trace(self):
        delta = DeltaCSR(self.base())
        delta.delete(0, 2)
        assert delta.num_edits == 0
        assert delta.compact() is delta.base  # nothing changed

    def test_reinsert_after_delete_wins(self):
        delta = DeltaCSR(self.base())
        delta.delete(0, 1)
        delta.insert(0, 1)
        assert delta.has_edge(0, 1)
        assert_graphs_byte_equal(delta.compact(), self.base())

    def test_self_loop_grows_universe_only(self):
        delta = DeltaCSR(self.base())
        delta.insert(7, 7)
        assert delta.self_loops_ignored == 1
        assert delta.num_nodes == 8
        compacted = delta.compact()
        assert compacted.num_nodes == 8
        assert compacted.degree(7) == 0

    def test_new_node_edge(self):
        delta = DeltaCSR(self.base())
        delta.insert(3, 6)
        compacted = delta.compact()
        assert compacted.num_nodes == 7
        np.testing.assert_array_equal(compacted.neighbors(6), [3])
        np.testing.assert_array_equal(compacted.neighbors(3), [0, 2, 6])

    def test_changed_arcs_undirected_lists_both_directions(self):
        delta = DeltaCSR(self.base())
        delta.delete(0, 1)
        arcs = {tuple(a) for a in delta.changed_arcs()}
        assert arcs == {(0, 1), (1, 0)}

    def test_noop_edits_produce_no_changed_arcs(self):
        delta = DeltaCSR(self.base())
        delta.insert(0, 1)  # already present, unweighted: no-op
        delta.delete(1, 3)  # absent: no-op
        assert len(delta.changed_arcs()) == 0

    def test_reweight_counts_as_change(self):
        base = CSRGraph.from_edges([(0, 1), (1, 2)], weights=[1.0, 2.0])
        delta = DeltaCSR(base)
        delta.insert(0, 1, weight=5.0)
        assert len(delta.changed_arcs()) == 2
        compacted = delta.compact()
        assert compacted.edge_weight(0, 1) == 5.0
        assert compacted.edge_weight(1, 0) == 5.0


# --------------------------------------------------------------------- #
# compact() byte-identity (hypothesis)
# --------------------------------------------------------------------- #


def reference_rebuild(delta: DeltaCSR) -> CSRGraph:
    edges, weights = delta.merged_edges()
    return CSRGraph.from_edges(edges, num_nodes=delta.num_nodes,
                               weights=weights,
                               directed=delta.base.directed)


@st.composite
def base_and_stream(draw):
    n = draw(st.integers(4, 12))
    directed = draw(st.booleans())
    weighted = draw(st.booleans())
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)) \
        .filter(lambda e: e[0] != e[1])
    edges = draw(st.lists(pairs, min_size=1, max_size=25))
    # canonical de-dup the way from_edges would merge them anyway
    keys = {(u, v) if directed or u < v else (v, u) for u, v in edges}
    edges = sorted(keys)
    weights = (draw(st.lists(st.floats(0.5, 4.0), min_size=len(edges),
                             max_size=len(edges)))
               if weighted else None)
    graph = CSRGraph.from_edges(edges, num_nodes=n, weights=weights,
                                directed=directed)
    # the stream may touch ids slightly above the base universe
    op_pairs = st.tuples(st.integers(0, n + 2), st.integers(0, n + 2))
    ops = draw(st.lists(
        st.tuples(st.sampled_from((1, -1)), op_pairs,
                  st.floats(0.5, 4.0)),
        min_size=0, max_size=30))
    return graph, ops


@given(base_and_stream())
@settings(max_examples=60, deadline=None)
def test_compact_byte_identical_to_rebuild(case):
    graph, ops = case
    delta = DeltaCSR(graph)
    for op, (u, v), w in ops:
        if op == 1:
            delta.insert(u, v, weight=w if graph.is_weighted else 1.0)
        else:
            delta.delete(u, v)
    compacted = delta.compact()
    assert_graphs_byte_equal(compacted, reference_rebuild(delta))
    # merged view answers match the compacted graph row for row
    for node in range(delta.num_nodes):
        np.testing.assert_array_equal(delta.neighbors(node),
                                      compacted.neighbors(node))


@given(st.integers(0, 2 ** 31 - 1), st.booleans())
@settings(max_examples=15, deadline=None)
def test_compact_under_random_churn(seed, directed):
    graph = powerlaw_cluster(40, attach=3, triangle_prob=0.4, seed=5)
    if directed:
        graph = graph.as_directed()
    stream = random_churn(graph, 0.1, seed=seed)
    delta = DeltaCSR(graph).apply(stream)
    assert_graphs_byte_equal(delta.compact(), reference_rebuild(delta))
