"""Tests for the bipartite generator and the recommendation harness."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import BipartiteInfo, bipartite_preference_graph
from repro.tasks import (
    evaluate_recommendation,
    random_baseline_precision,
    rank_items,
    split_interactions,
)


@pytest.fixture(scope="module")
def shop():
    """A 60-user, 40-item preference graph with 4 planted groups."""
    return bipartite_preference_graph(
        num_users=60, num_items=40, num_groups=4,
        interactions_per_user=8, affinity=0.9, seed=3,
    )


class TestBipartiteGenerator:
    def test_structure(self, shop):
        graph, info = shop
        assert graph.num_nodes == 100
        assert info.num_users == 60 and info.num_items == 40
        assert info.item_ids[0] == 60
        assert info.item_ids[-1] == 99

    def test_strictly_bipartite(self, shop):
        graph, info = shop
        for user in range(info.num_users):
            assert (graph.neighbors(user) >= info.num_users).all()
        for item in info.item_ids:
            assert (graph.neighbors(item) < info.num_users).all()

    def test_interactions_per_user(self, shop):
        graph, info = shop
        degrees = graph.degrees[:info.num_users]
        assert np.all(degrees >= 1)
        assert np.all(degrees <= 8)
        assert degrees.mean() > 5  # near-complete baskets at this affinity

    def test_affinity_concentrates_groups(self, shop):
        graph, info = shop
        in_group = 0
        total = 0
        for user in range(info.num_users):
            g = info.user_groups[user]
            for item in graph.neighbors(user):
                total += 1
                if info.item_groups[int(item) - info.num_users] == g:
                    in_group += 1
        assert in_group / total > 0.7

    def test_every_group_has_items(self, shop):
        _, info = shop
        assert set(info.item_groups.tolist()) == {0, 1, 2, 3}

    def test_deterministic(self):
        a = bipartite_preference_graph(20, 15, 3, 4, seed=7)
        b = bipartite_preference_graph(20, 15, 3, 4, seed=7)
        assert np.array_equal(a[0].indices, b[0].indices)
        assert np.array_equal(a[1].user_groups, b[1].user_groups)

    def test_validation(self):
        with pytest.raises(ValueError):
            bipartite_preference_graph(0, 10)
        with pytest.raises(ValueError):
            bipartite_preference_graph(10, 2, num_groups=5)
        with pytest.raises(ValueError):
            bipartite_preference_graph(10, 10, zipf_exponent=0.0)
        with pytest.raises(ValueError):
            bipartite_preference_graph(10, 10, affinity=1.5)


class TestSplitInteractions:
    def test_holdout_fraction(self, shop):
        graph, info = shop
        split = split_interactions(graph, info, test_fraction=0.3, seed=0)
        held = sum(v.size for v in split.test_items.values())
        total = int(graph.degrees[:info.num_users].sum())
        assert 0.15 * total < held < 0.45 * total

    def test_every_user_keeps_a_training_item(self, shop):
        graph, info = shop
        split = split_interactions(graph, info, test_fraction=0.9, seed=0)
        for user in split.test_items:
            assert split.train_graph.degree(user) >= 1

    def test_train_graph_lost_exactly_held_edges(self, shop):
        graph, info = shop
        split = split_interactions(graph, info, test_fraction=0.3, seed=1)
        held = sum(v.size for v in split.test_items.values())
        assert graph.num_edges - split.train_graph.num_edges == held

    def test_test_items_disjoint_from_train_items(self, shop):
        graph, info = shop
        split = split_interactions(graph, info, test_fraction=0.4, seed=2)
        for user, held in split.test_items.items():
            kept = set(split.train_items[user].tolist())
            assert not kept.intersection(held.tolist())

    def test_zero_fraction(self, shop):
        graph, info = shop
        split = split_interactions(graph, info, test_fraction=0.0, seed=0)
        assert not split.test_items
        assert split.train_graph.num_edges == graph.num_edges


class TestRankItems:
    def test_orders_by_score(self):
        emb = np.zeros((5, 2))
        emb[0] = [1.0, 0.0]             # the user
        emb[2] = [0.9, 0.0]             # best item
        emb[3] = [0.5, 0.0]
        emb[4] = [0.1, 0.0]
        items = np.array([2, 3, 4])
        recs = rank_items(emb, 0, items, np.empty(0, dtype=np.int64), k=2)
        assert list(recs) == [2, 3]

    def test_excludes_training_items(self):
        emb = np.zeros((5, 2))
        emb[0] = [1.0, 0.0]
        emb[2] = [0.9, 0.0]
        emb[3] = [0.5, 0.0]
        emb[4] = [0.1, 0.0]
        items = np.array([2, 3, 4])
        recs = rank_items(emb, 0, items, np.array([2]), k=2)
        assert 2 not in recs
        assert list(recs) == [3, 4]

    def test_k_capped_at_catalogue(self):
        emb = np.random.default_rng(0).normal(size=(4, 3))
        recs = rank_items(emb, 0, np.array([1, 2, 3]),
                          np.empty(0, dtype=np.int64), k=10)
        assert recs.size == 3


class TestEvaluateRecommendation:
    def test_oracle_embedding_wins(self, shop):
        """Group-one-hot embeddings must beat the random baseline."""
        graph, info = shop

        def oracle(train_graph):
            emb = np.zeros((graph.num_nodes, 4))
            emb[:info.num_users] = np.eye(4)[info.user_groups]
            emb[info.item_ids] = np.eye(4)[info.item_groups]
            return emb

        report = evaluate_recommendation(graph, info, oracle, k=10,
                                         test_fraction=0.3, seed=0)
        split = split_interactions(graph, info, test_fraction=0.3, seed=0)
        floor = random_baseline_precision(info, split, k=10)
        assert report.precision_at_k > 2 * floor
        assert report.hit_rate_at_k > 0.5
        assert 0.0 <= report.mrr <= 1.0
        assert report.num_users_evaluated == len(split.test_items)

    def test_random_embedding_near_floor(self, shop):
        graph, info = shop
        rng = np.random.default_rng(9)

        def random_embed(train_graph):
            return rng.normal(size=(graph.num_nodes, 8))

        report = evaluate_recommendation(graph, info, random_embed, k=10,
                                         test_fraction=0.3, seed=0)
        split = split_interactions(graph, info, test_fraction=0.3, seed=0)
        floor = random_baseline_precision(info, split, k=10)
        # Random scores hover near the floor (allow generous noise).
        assert report.precision_at_k < floor + 0.15

    def test_end_to_end_with_distger(self, shop):
        """The real system beats random recommendations on the stand-in."""
        from repro.api import embed_graph

        graph, info = shop

        def embed(train_graph):
            return embed_graph(train_graph, method="distger", num_machines=2,
                               dim=16, epochs=2, seed=0).embeddings

        report = evaluate_recommendation(graph, info, embed, k=10,
                                         test_fraction=0.3, seed=0)
        split = split_interactions(graph, info, test_fraction=0.3, seed=0)
        floor = random_baseline_precision(info, split, k=10)
        assert report.precision_at_k > floor
        assert report.recall_at_k > 0.0

    def test_wrong_embedding_shape_rejected(self, shop):
        graph, info = shop
        with pytest.raises(ValueError, match="every node"):
            evaluate_recommendation(
                graph, info, lambda g: np.zeros((3, 2)), k=5, seed=0)

    def test_all_singleton_users_rejected(self):
        graph, info = bipartite_preference_graph(
            num_users=5, num_items=10, num_groups=2,
            interactions_per_user=1, seed=0)
        with pytest.raises(ValueError, match="hold any out"):
            evaluate_recommendation(
                graph, info, lambda g: np.zeros((graph.num_nodes, 2)),
                k=5, test_fraction=0.3, seed=0)
