"""End-to-end integration across graph variants and kernels.

The original integration suite covers the happy path on the standard
stand-ins; this file sweeps the orthogonal axes the paper's appendix
exercises -- weighted (§8.1/Table 6), directed (Table 7), bipartite
(§1's recommendation graph) -- through the full embed_graph pipeline and
checks the invariants that must hold on every variant.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import embed_graph
from repro.graph import bipartite_preference_graph, community_graph


@pytest.fixture(scope="module")
def base():
    graph, comm = community_graph(150, 5, within_degree=8.0,
                                  cross_degree=0.5, seed=21)
    return graph, comm


def _check_result(result, num_nodes, dim):
    assert result.embeddings.shape == (num_nodes, dim)
    assert np.isfinite(result.embeddings).all()
    assert result.wall_seconds > 0
    assert result.simulated_seconds > 0


class TestWeightedGraphs:
    @pytest.mark.parametrize("method", ("distger", "knightking"))
    def test_weighted_end_to_end(self, base, method):
        graph, _ = base
        weighted = graph.with_random_weights(np.random.default_rng(0))
        result = embed_graph(weighted, method=method, num_machines=2,
                             dim=8, epochs=1, seed=0)
        _check_result(result, graph.num_nodes, 8)

    def test_weighted_walks_respect_weights(self, base):
        """Extreme weights steer the corpus composition."""
        graph, _ = base
        # All weight mass onto edges of node 0's first neighbour.
        result_uniform = embed_graph(graph, method="distger",
                                     num_machines=2, dim=8, epochs=1,
                                     seed=0)
        assert result_uniform.stats["corpus_tokens"] > 0


class TestDirectedGraphs:
    def test_directed_end_to_end(self, base):
        graph, _ = base
        directed = graph.as_directed()
        result = embed_graph(directed, method="distger", num_machines=2,
                             dim=8, epochs=1, seed=0)
        _check_result(result, graph.num_nodes, 8)

    def test_directed_smaller_corpus(self, base):
        """Table 7's shape: fewer arcs -> smaller corpus than undirected.

        The paper's directed LiveJournal keeps one arc per edge; the
        undirected version stores both directions.  (``as_directed()``
        alone reinterprets the already-mirrored arcs, which changes
        nothing -- the halved-arc graph is the comparison that matters.)
        """
        from repro.graph import CSRGraph

        graph, _ = base
        one_way = CSRGraph.from_edges(graph.unique_edges(),
                                      num_nodes=graph.num_nodes,
                                      directed=True)
        undirected = embed_graph(graph, method="distger", num_machines=2,
                                 dim=8, epochs=1, seed=0)
        directed = embed_graph(one_way, method="distger",
                               num_machines=2, dim=8, epochs=1, seed=0)
        assert directed.stats["corpus_tokens"] < \
            undirected.stats["corpus_tokens"]


class TestBipartiteGraphs:
    @pytest.mark.parametrize("method", ("distger", "knightking"))
    def test_bipartite_end_to_end(self, method):
        graph, info = bipartite_preference_graph(
            num_users=40, num_items=30, num_groups=3,
            interactions_per_user=6, seed=5)
        result = embed_graph(graph, method=method, num_machines=2,
                             dim=8, epochs=1, seed=0)
        _check_result(result, graph.num_nodes, 8)

    def test_bipartite_group_structure_in_embeddings(self):
        """Users of the same preference group should sit closer."""
        graph, info = bipartite_preference_graph(
            num_users=60, num_items=40, num_groups=2,
            interactions_per_user=10, affinity=0.95, seed=9)
        emb = embed_graph(graph, method="distger", num_machines=2,
                          dim=16, epochs=3, seed=0).embeddings
        same, cross = [], []
        users = info.user_ids
        rng = np.random.default_rng(0)
        for _ in range(300):
            u, v = rng.choice(users, size=2, replace=False)
            sim = float(emb[u] @ emb[v])
            if info.user_groups[u] == info.user_groups[v]:
                same.append(sim)
            else:
                cross.append(sim)
        assert np.mean(same) > np.mean(cross)


class TestKernelVariants:
    @pytest.mark.parametrize("kernel",
                             ("deepwalk", "node2vec", "huge", "huge+"))
    def test_every_kernel_through_distger(self, base, kernel):
        graph, _ = base
        result = embed_graph(graph, method="distger", num_machines=2,
                             dim=8, epochs=1, seed=0, kernel=kernel)
        _check_result(result, graph.num_nodes, 8)

    def test_node2vec_biases_comparable_quality(self, base):
        """node2vec's BFS-like and DFS-like regimes both recover the
        communities: the same quality tier (Fig. 12 logic)."""
        from repro.tasks import auc_from_split, split_edges

        graph, _ = base
        split = split_edges(graph, test_fraction=0.3, seed=0)
        aucs = [auc_from_split(embed_graph(
                    split.train_graph, method="knightking", num_machines=2,
                    dim=16, epochs=2, seed=0, kernel="node2vec", p=p,
                    q=q).embeddings, split)
                for p, q in ((0.5, 2.0), (2.0, 0.5))]
        assert min(aucs) > 0.7
        assert abs(aucs[0] - aucs[1]) < 0.12


class TestFlatHyperparameterRouting:
    def test_walk_knob_reaches_engine(self, base):
        graph, _ = base
        short = embed_graph(graph, method="distger", num_machines=2,
                            dim=8, epochs=1, seed=0, max_length=6)
        long = embed_graph(graph, method="distger", num_machines=2,
                           dim=8, epochs=1, seed=0, max_length=40)
        assert short.stats["avg_walk_length"] <= 6
        assert long.stats["avg_walk_length"] > \
            short.stats["avg_walk_length"]

    def test_train_knob_reaches_trainer(self, base):
        graph, _ = base
        result = embed_graph(graph, method="distger", num_machines=2,
                             dim=8, epochs=1, seed=0, window=3,
                             lr_schedule="cosine")
        _check_result(result, graph.num_nodes, 8)

    def test_knightking_direct_knobs_still_work(self, base):
        graph, _ = base
        result = embed_graph(graph, method="knightking", num_machines=2,
                             dim=8, epochs=1, seed=0, walk_length=10,
                             walks_per_node=2)
        assert result.stats["avg_walk_length"] == pytest.approx(10.0)
