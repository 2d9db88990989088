"""Tests for embedding-space similarity queries."""

from __future__ import annotations

import numpy as np
import pytest

from repro.embedding import top_k_similar


@pytest.fixture
def toy_embeddings():
    """Six nodes in 2-D with known geometry."""
    return np.array([
        [1.0, 0.0],    # 0
        [2.0, 0.0],    # 1: same direction as 0, longer
        [0.0, 1.0],    # 2: orthogonal to 0
        [-1.0, 0.0],   # 3: opposite of 0
        [1.0, 1.0],    # 4: 45 degrees
        [0.0, 0.0],    # 5: zero vector
    ])


class TestTopKSimilar:
    def test_ranking_cosine(self, toy_embeddings):
        out = top_k_similar(toy_embeddings, 0, k=3)
        ids = [node for node, _ in out]
        assert ids[0] == 1                   # same direction
        assert ids[1] == 4                   # 45 degrees
        assert 3 not in ids[:2]              # opposite comes last

    def test_excludes_self(self, toy_embeddings):
        out = top_k_similar(toy_embeddings, 0, k=10)
        assert all(node != 0 for node, _ in out)

    def test_dot_metric_rewards_magnitude(self, toy_embeddings):
        out = top_k_similar(toy_embeddings, 1, k=2, metric="dot")
        assert out[0][0] == 0 or out[0][1] >= out[1][1]

    def test_candidate_restriction(self, toy_embeddings):
        out = top_k_similar(toy_embeddings, 0, k=5,
                            candidates=np.array([2, 3]))
        assert {node for node, _ in out} == {2, 3}

    def test_scores_descending(self, toy_embeddings):
        out = top_k_similar(toy_embeddings, 4, k=5)
        scores = [s for _, s in out]
        assert scores == sorted(scores, reverse=True)

    def test_empty_candidates(self, toy_embeddings):
        assert top_k_similar(toy_embeddings, 0,
                             candidates=np.array([0])) == []

    def test_bad_metric(self, toy_embeddings):
        with pytest.raises(ValueError, match="metric"):
            top_k_similar(toy_embeddings, 0, metric="euclid")

    def test_parallel_scores_one(self, toy_embeddings):
        scores = dict(top_k_similar(toy_embeddings, 0, k=5))
        assert scores[1] == pytest.approx(1.0)

    def test_orthogonal_scores_zero(self, toy_embeddings):
        scores = dict(top_k_similar(toy_embeddings, 0, k=5))
        assert scores[2] == pytest.approx(0.0)

    def test_opposite_scores_minus_one(self, toy_embeddings):
        scores = dict(top_k_similar(toy_embeddings, 0, k=5))
        assert scores[3] == pytest.approx(-1.0)

    def test_zero_vector_scores_zero(self, toy_embeddings):
        assert dict(top_k_similar(toy_embeddings, 0, k=5))[5] == 0.0
        assert all(score == 0.0
                   for _, score in top_k_similar(toy_embeddings, 5, k=5))

    def test_cosine_is_symmetric(self, toy_embeddings):
        forward = dict(top_k_similar(toy_embeddings, 0, k=5))[4]
        backward = dict(top_k_similar(toy_embeddings, 4, k=5))[0]
        assert forward == pytest.approx(backward)

    @pytest.mark.parametrize("metric", ("cosine", "dot"))
    def test_matches_brute_force(self, metric):
        emb = np.random.default_rng(4).normal(size=(30, 6))
        node = 7
        if metric == "cosine":
            unit = emb / np.linalg.norm(emb, axis=1, keepdims=True)
            scores = unit @ unit[node]
        else:
            scores = emb @ emb[node]
        scores[node] = -np.inf
        expected = np.argsort(-scores, kind="stable")[:5]
        out = top_k_similar(emb, node, k=5, metric=metric)
        assert [n for n, _ in out] == expected.tolist()
        np.testing.assert_allclose([s for _, s in out], scores[expected])

    def test_ties_broken_by_smallest_id(self):
        emb = np.ones((6, 3))
        assert [n for n, _ in top_k_similar(emb, 4, k=3)] == [0, 1, 2]

    def test_duplicate_candidates_returned_once(self, toy_embeddings):
        out = top_k_similar(toy_embeddings, 0, k=10,
                            candidates=np.array([2, 2, 3, 3, 1]))
        assert [n for n, _ in out] == [1, 2, 3]

    def test_k_beyond_the_nodes_returns_each_once(self, toy_embeddings):
        out = top_k_similar(toy_embeddings, 0, k=100)
        assert sorted(n for n, _ in out) == [1, 2, 3, 4, 5]

    @pytest.mark.parametrize("k", (0, -3))
    def test_nonpositive_k_raises(self, toy_embeddings, k):
        with pytest.raises(ValueError, match="k must be"):
            top_k_similar(toy_embeddings, 0, k=k)

    def test_node_outside_the_matrix_raises(self, toy_embeddings):
        with pytest.raises(ValueError, match="query nodes"):
            top_k_similar(toy_embeddings, 6, k=1)

    def test_embedding_neighbors_are_graph_neighbors(self):
        """On a strongly-clustered graph, a node's nearest embedding
        neighbours should come from its own clique."""
        from repro.api import embed_graph
        from repro.graph import ring_of_cliques

        g = ring_of_cliques(4, 8)
        emb = embed_graph(g, method="distger", num_machines=2, dim=16,
                          epochs=3, seed=0).embeddings
        hits = 0
        for node in (0, 8, 16, 24):
            clique = set(range(node, node + 8))
            top = top_k_similar(emb, node, k=3)
            hits += sum(1 for n, _ in top if n in clique)
        assert hits >= 8  # at least 2/3 of neighbours from the right clique
