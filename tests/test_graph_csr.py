"""Tests for the CSR graph structure."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import CSRGraph

edge_lists = st.lists(
    st.tuples(st.integers(min_value=0, max_value=15),
              st.integers(min_value=0, max_value=15)),
    min_size=0, max_size=60,
)


class TestConstruction:
    def test_triangle(self, triangle):
        assert triangle.num_nodes == 3
        assert triangle.num_edges == 3
        assert triangle.num_stored_edges == 6  # undirected: both arcs

    def test_empty_graph(self):
        g = CSRGraph.from_edges([], num_nodes=5)
        assert g.num_nodes == 5
        assert g.num_edges == 0
        assert g.degree(3) == 0

    def test_self_loops_dropped(self):
        g = CSRGraph.from_edges([(0, 0), (0, 1)])
        assert g.num_edges == 1
        assert not g.has_edge(0, 0)

    def test_duplicate_edges_merged(self):
        g = CSRGraph.from_edges([(0, 1), (0, 1), (1, 0)])
        assert g.num_edges == 1
        assert g.degree(0) == 1

    def test_duplicate_weights_summed(self):
        g = CSRGraph.from_edges([(0, 1), (0, 1)], weights=[2.0, 3.0],
                                directed=True)
        assert g.edge_weight(0, 1) == pytest.approx(5.0)

    def test_duplicate_weights_mirror_arcs_byte_equal(self):
        # Duplicates listed in both directions must sum in one canonical
        # order, so the two stored arcs carry bit-identical weights.
        w = [0.1, 0.2, 0.30000000000000004, 1.7, 2.9]
        g = CSRGraph.from_edges([(0, 1), (1, 0), (0, 1), (1, 0), (0, 1)],
                                weights=w)
        assert g.edge_weight(0, 1) == g.edge_weight(1, 0)  # exact, not approx

    def test_num_nodes_too_small_rejected(self):
        with pytest.raises(ValueError, match="num_nodes"):
            CSRGraph.from_edges([(0, 5)], num_nodes=3)

    def test_all_self_loops_keeps_nodes(self):
        # Node 5 exists even though its only mention is a dropped loop.
        g = CSRGraph.from_edges([(5, 5)])
        assert g.num_nodes == 6
        assert g.num_edges == 0
        assert g.degree(5) == 0

    def test_self_loop_ids_validated_against_num_nodes(self):
        with pytest.raises(ValueError, match="num_nodes"):
            CSRGraph.from_edges([(5, 5)], num_nodes=3)

    def test_isolated_node_from_loop_plus_edges(self):
        g = CSRGraph.from_edges([(0, 1), (7, 7)])
        assert g.num_nodes == 8
        assert g.degree(7) == 0
        assert g.has_edge(0, 1)

    def test_empty_weighted_graph_weight_dtype(self):
        g = CSRGraph.from_edges([], num_nodes=4, weights=[])
        assert g.is_weighted
        assert g.weights.dtype == np.float64

    def test_all_self_loops_weighted_dtype(self):
        g = CSRGraph.from_edges([(2, 2)], weights=[3.0])
        assert g.num_nodes == 3
        assert g.weights is not None and g.weights.dtype == np.float64

    def test_negative_ids_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            CSRGraph.from_edges([(-1, 2)])

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            CSRGraph.from_edges(np.array([[1, 2, 3]]))

    def test_weights_length_mismatch(self):
        with pytest.raises(ValueError, match="weights length"):
            CSRGraph.from_edges([(0, 1)], weights=[1.0, 2.0])

    @pytest.mark.parametrize("bad", [float("nan"), -2.0, float("inf")])
    def test_rejects_non_finite_and_negative_weights(self, bad):
        """The first bad arc is named; before this check a NaN and a
        negative weight embedded end to end without a word."""
        with pytest.raises(ValueError, match=r"arc 2 \(1 -> 2\)"):
            CSRGraph.from_edges([(0, 1), (1, 2), (2, 3)],
                                weights=[1.0, bad, 3.0])

    def test_zero_weights_stay_legal(self):
        g = CSRGraph.from_edges([(0, 1), (1, 2)], weights=[0.0, 1.0])
        assert g.edge_weight(0, 1) == 0.0

    def test_file_readers_reject_bad_weights(self, tmp_path):
        from repro.graph.io import load_graph_npz, read_edge_list

        edges = tmp_path / "g.txt"
        edges.write_text("0 1 1.0\n1 2 nan\n")
        with pytest.raises(ValueError, match="weight"):
            read_edge_list(str(edges), weighted=True)
        path = tmp_path / "g.npz"
        np.savez(path, indptr=np.array([0, 1, 2]), indices=np.array([1, 0]),
                 weights=np.array([-1.0, -1.0]), directed=np.array([False]))
        with pytest.raises(ValueError, match=r"arc 0 \(0 -> 1\)"):
            load_graph_npz(str(path))

    @given(edge_lists)
    @settings(max_examples=150, deadline=None)
    def test_invariants(self, edges):
        g = CSRGraph.from_edges(edges, num_nodes=16)
        # indptr monotone, ends at len(indices)
        assert g.indptr[0] == 0
        assert g.indptr[-1] == g.indices.size
        assert np.all(np.diff(g.indptr) >= 0)
        # adjacency sorted per node, no self loops, symmetric
        for u in range(g.num_nodes):
            nbrs = g.neighbors(u)
            assert np.all(np.diff(nbrs) > 0)  # sorted & unique
            assert u not in nbrs
            for v in nbrs:
                assert g.has_edge(int(v), u)  # symmetry


class TestAccessors:
    def test_neighbors_sorted(self, small_graph):
        for u in range(small_graph.num_nodes):
            nbrs = small_graph.neighbors(u)
            assert np.all(np.diff(nbrs) > 0)

    def test_has_edge(self, triangle):
        assert triangle.has_edge(0, 1)
        assert triangle.has_edge(1, 0)
        assert not triangle.has_edge(0, 0)

    def test_edge_weight_unweighted(self, triangle):
        assert triangle.edge_weight(0, 1) == 1.0

    def test_edge_weight_missing(self, triangle):
        with pytest.raises(KeyError):
            triangle.edge_weight(0, 3 - 3)  # self pair absent

    def test_edge_weight_weighted(self, weighted_triangle):
        assert weighted_triangle.edge_weight(0, 1) == pytest.approx(1.0)
        assert weighted_triangle.edge_weight(2, 0) == pytest.approx(3.0)

    def test_common_neighbors(self, small_graph):
        # Nodes 0 and 1 are in the same 8-clique: share the other 6 members.
        assert small_graph.common_neighbor_count(0, 1) >= 6

    def test_degrees_match_neighbors(self, medium_graph):
        for u in range(0, medium_graph.num_nodes, 17):
            assert medium_graph.degree(u) == medium_graph.neighbors(u).size


class TestTransformations:
    def test_edge_array_roundtrip(self, small_graph):
        arcs = small_graph.edge_array()
        rebuilt = CSRGraph.from_edges(
            arcs[arcs[:, 0] < arcs[:, 1]], num_nodes=small_graph.num_nodes
        )
        np.testing.assert_array_equal(rebuilt.indptr, small_graph.indptr)
        np.testing.assert_array_equal(rebuilt.indices, small_graph.indices)

    def test_unique_edges_half_of_arcs(self, small_graph):
        assert len(small_graph.unique_edges()) == small_graph.num_edges

    def test_with_random_weights_symmetric(self, small_graph, rng):
        wg = small_graph.with_random_weights(rng)
        for u, v in wg.unique_edges()[:20]:
            assert wg.edge_weight(int(u), int(v)) == pytest.approx(
                wg.edge_weight(int(v), int(u))
            )
            assert 1.0 <= wg.edge_weight(int(u), int(v)) < 5.0

    def test_as_directed_preserves_arcs(self, triangle):
        d = triangle.as_directed()
        assert d.directed
        assert d.num_edges == 6  # each stored arc counts

    def test_as_undirected_roundtrip(self):
        d = CSRGraph.from_edges([(0, 1), (1, 2)], directed=True)
        u = d.as_undirected()
        assert not u.directed
        assert u.has_edge(1, 0)

    def test_subgraph_without_edges(self, triangle):
        g = triangle.subgraph_without_edges([(0, 1)])
        assert not g.has_edge(0, 1)
        assert not g.has_edge(1, 0)
        assert g.has_edge(1, 2)
        assert g.num_edges == 2

    def test_memory_bytes_positive(self, small_graph):
        assert small_graph.memory_bytes() > 0
