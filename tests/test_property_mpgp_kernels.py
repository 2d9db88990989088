"""Property-based tests: MPGP invariants and kernel probability laws."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import CSRGraph
from repro.partition import MPGPPartitioner, node_balance
from repro.walks import HuGEKernel, Node2VecKernel
from repro.walks.kernels import common_neighbor_counts_per_arc

# Random small graphs: edge lists over <= 24 nodes.
graphs = st.lists(
    st.tuples(st.integers(min_value=0, max_value=23),
              st.integers(min_value=0, max_value=23)),
    min_size=5, max_size=80,
).map(lambda edges: CSRGraph.from_edges(edges, num_nodes=24))


class TestMPGPProperties:
    @given(graphs, st.integers(min_value=1, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_assignment_valid(self, graph, parts):
        result = MPGPPartitioner(gamma=2.0).partition(graph, parts)
        assert result.assignment.shape == (graph.num_nodes,)
        assert result.assignment.min() >= 0
        assert result.assignment.max() < parts

    @given(graphs)
    @settings(max_examples=60, deadline=None)
    def test_gamma_bound_roughly_respected(self, graph):
        """With gamma=2 no partition should exceed ~2x the mean size by
        much (the dynamic constraint re-evaluates per assignment, so the
        bound is approximate but must not be wildly violated)."""
        parts = 3
        result = MPGPPartitioner(gamma=2.0).partition(graph, parts)
        assert node_balance(result.assignment, parts) <= 2.5

    @given(graphs)
    @settings(max_examples=30, deadline=None)
    def test_deterministic(self, graph):
        a = MPGPPartitioner().partition(graph, 3).assignment
        b = MPGPPartitioner().partition(graph, 3).assignment
        np.testing.assert_array_equal(a, b)


class TestKernelProbabilityLaws:
    @given(graphs)
    @settings(max_examples=60, deadline=None)
    def test_huge_acceptance_in_unit_interval(self, graph):
        kernel = HuGEKernel(graph)
        for u in range(graph.num_nodes):
            for v in graph.neighbors(u)[:4]:
                p = kernel.acceptance_probability(u, int(v))
                assert 0.0 <= p <= 1.0

    @given(graphs)
    @settings(max_examples=60, deadline=None)
    def test_huge_symmetric_degree_ratio(self, graph):
        """Eq. 3's max() makes the degree-ratio factor symmetric, so for
        equal-degree endpoint pairs P(u,v) only depends on Cm and deg --
        i.e. P(u,v) == P(v,u) when deg u == deg v."""
        kernel = HuGEKernel(graph)
        for u in range(graph.num_nodes):
            for v in graph.neighbors(u)[:4]:
                v = int(v)
                if graph.degree(u) == graph.degree(v):
                    assert kernel.acceptance_probability(u, v) == \
                        pytest.approx(kernel.acceptance_probability(v, u))

    def test_huge_monotone_in_common_neighbours(self):
        """More shared neighbours (same degrees) => higher acceptance."""
        # Build two graphs where (0,1) have 1 vs 2 common neighbours but
        # identical degrees.
        g1 = CSRGraph.from_edges(
            [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (3, 5), (4, 5),
             (2, 6), (6, 5)])
        g2 = CSRGraph.from_edges(
            [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (3, 5), (2, 6),
             (6, 5), (4, 5), (4, 6)])
        p1 = HuGEKernel(g1).acceptance_probability(0, 1)
        p2 = HuGEKernel(g2).acceptance_probability(0, 1)
        # Arc 0 is (0, 1) in both: 1 is node 0's smallest neighbour.
        assert (common_neighbor_counts_per_arc(g1)[0]
                < common_neighbor_counts_per_arc(g2)[0])
        assert g1.indices[0] == g2.indices[0] == 1
        assert g1.degree(0) == g2.degree(0) and g1.degree(1) == g2.degree(1)
        assert p2 > p1

    @given(st.floats(min_value=0.25, max_value=4.0),
           st.floats(min_value=0.25, max_value=4.0))
    @settings(max_examples=60, deadline=None)
    def test_node2vec_envelope_dominates(self, p, q):
        """Rejection sampling is only correct if the envelope Q bounds
        every unnormalised probability pi."""
        g = CSRGraph.from_edges([(0, 1), (1, 2), (2, 3), (1, 3)])
        kernel = Node2VecKernel(g, p=p, q=q)
        for prev in (-1, 0, 1, 2, 3):
            for cand in range(4):
                assert kernel._pi(prev, cand) <= kernel._envelope + 1e-12
