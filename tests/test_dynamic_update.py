"""Dynamic update path: invalidation audits, warm-start refresh, parity.

Covers the mutation seams end to end: the stale-walk audits
(:mod:`repro.dynamic.invalidate`), the in-place corpus splice
(:meth:`Corpus.replace_walks` -- the streaming-contract regression
suite), and the full :func:`repro.dynamic.update_embedding` /
:func:`repro.apply_edge_stream` orchestration, including the
serial/process/pipeline byte-parity of an update step.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import apply_edge_stream, embed_graph
from repro.dynamic.delta import DeltaCSR, EdgeStream, random_churn
from repro.dynamic.invalidate import (
    affected_nodes,
    audit_walks,
    stale_walk_ids,
)
from repro.dynamic.update import update_embedding
from repro.graph import powerlaw_cluster
from repro.graph.csr import CSRGraph
from repro.walks import Corpus
from repro.walks.engine import WalkConfig

SMALL = dict(num_machines=2, dim=12, epochs=2, seed=7)


# --------------------------------------------------------------------- #
# Invalidation audits
# --------------------------------------------------------------------- #


class TestInvalidation:
    def test_arc_audit_flags_traversed_pairs_only(self):
        tokens = np.array([0, 1, 2, 3, 4], dtype=np.int64)
        offsets = np.array([0, 3, 5], dtype=np.int64)
        stale = stale_walk_ids(tokens, offsets, arcs=[[1, 2]], num_nodes=5)
        np.testing.assert_array_equal(stale, [0])
        # the (2, 3) pair straddles the walk boundary: no walk owns it
        stale = stale_walk_ids(tokens, offsets, arcs=[[2, 3]], num_nodes=5)
        assert stale.size == 0

    def test_node_audit_flags_visiting_walks(self):
        tokens = np.array([0, 1, 2, 3, 4], dtype=np.int64)
        offsets = np.array([0, 3, 5], dtype=np.int64)
        stale = stale_walk_ids(tokens, offsets, nodes=[4], num_nodes=5)
        np.testing.assert_array_equal(stale, [1])
        both = stale_walk_ids(tokens, offsets, nodes=[4], arcs=[[1, 2]],
                              num_nodes=5)
        np.testing.assert_array_equal(both, [0, 1])

    def test_affected_nodes_kernel_ladder(self):
        graph = CSRGraph.from_edges([(0, 1), (1, 2), (2, 3), (3, 4)])
        arcs = np.array([[1, 2], [2, 1]])
        # walk-local kernels: only the endpoints are dirty
        np.testing.assert_array_equal(
            affected_nodes(arcs, kernel="deepwalk"), [1, 2])
        # HuGE reads the candidate's adjacency: expand with neighbours
        expanded = affected_nodes(arcs, kernel="huge", old_graph=graph)
        np.testing.assert_array_equal(expanded, [0, 1, 2, 3])
        # old + new graph expansion is conservative: a superset of either
        both = affected_nodes(arcs, kernel="huge", old_graph=graph,
                              new_graph=graph)
        assert set(expanded) <= set(both)

    def test_audit_walks_validates_mode(self):
        corpus = Corpus(4)
        corpus.add_walk([0, 1])
        with pytest.raises(ValueError, match="audit"):
            audit_walks(corpus, np.empty((0, 2)), audit="bogus")


# --------------------------------------------------------------------- #
# Corpus splice (the satellite-3 streaming-contract regression suite)
# --------------------------------------------------------------------- #


def _padded(rows):
    lengths = np.array([len(r) for r in rows], dtype=np.int64)
    paths = np.full((len(rows), int(lengths.max())), -1, dtype=np.int64)
    for i, row in enumerate(rows):
        paths[i, :len(row)] = row
    return paths, lengths


class TestReplaceWalks:
    def build(self):
        corpus = Corpus(10)
        for walk in ([0, 1, 2], [3, 4], [5, 6, 7, 8], [9, 0]):
            corpus.add_walk(walk)
        return corpus

    def test_equal_length_overwrites_in_place(self):
        corpus = self.build()
        paths, lengths = _padded([[7, 8], [2, 3, 4, 5]])
        corpus.replace_walks([1, 2], paths, lengths)
        np.testing.assert_array_equal(corpus.walk(1), [7, 8])
        np.testing.assert_array_equal(corpus.walk(2), [2, 3, 4, 5])
        np.testing.assert_array_equal(corpus.walk(0), [0, 1, 2])
        np.testing.assert_array_equal(corpus.walk(3), [9, 0])
        # the walk count never changes and the lengths view tracks the
        # patch
        assert corpus.num_walks == 4
        np.testing.assert_array_equal(corpus.walk_lengths, [3, 2, 4, 2])

    def test_occurrences_patched_incrementally(self):
        corpus = self.build()
        paths, lengths = _padded([[9, 9, 9]])
        corpus.replace_walks([0], paths, lengths)
        recount = np.bincount(np.asarray(corpus.tokens),
                              minlength=corpus.num_nodes)
        np.testing.assert_array_equal(corpus.occurrences, recount)

    def test_length_change_rebuild_keeps_other_walks(self):
        corpus = self.build()
        reference = [np.asarray(corpus.walk(i)).copy() for i in range(4)]
        paths, lengths = _padded([[1], [2, 3, 4, 5, 6]])
        corpus.replace_walks([0, 3], paths, lengths)
        np.testing.assert_array_equal(corpus.walk(0), [1])
        np.testing.assert_array_equal(corpus.walk(1), reference[1])
        np.testing.assert_array_equal(corpus.walk(2), reference[2])
        np.testing.assert_array_equal(corpus.walk(3), [2, 3, 4, 5, 6])
        offsets = np.asarray(corpus.offsets)
        assert offsets[0] == 0
        assert (np.diff(offsets) > 0).all()
        assert corpus.total_tokens == offsets[-1] == 1 + 2 + 4 + 5
        assert corpus.num_walks == 4
        recount = np.bincount(np.asarray(corpus.tokens),
                              minlength=corpus.num_nodes)
        np.testing.assert_array_equal(corpus.occurrences, recount)

    def test_validation_errors(self):
        corpus = self.build()
        paths, lengths = _padded([[1, 2]])
        with pytest.raises(ValueError, match="out of range"):
            corpus.replace_walks([4], paths, lengths)
        with pytest.raises(ValueError, match="duplicate"):
            corpus.replace_walks([1, 1], *_padded([[1], [2]]))
        with pytest.raises(ValueError, match="at least one token"):
            corpus.replace_walks([0], paths, np.array([0]))
        with pytest.raises(ValueError, match="universe"):
            corpus.replace_walks([0], *_padded([[10, 11]]))
        with pytest.raises(ValueError, match="parallel"):
            corpus.replace_walks([0, 1], paths, lengths)

    def test_spilled_corpus_splice(self, tmp_path):
        corpus = self.build()
        corpus.spill_to(str(tmp_path))
        paths, lengths = _padded([[2, 3, 4, 5, 6], [7]])
        corpus.replace_walks([0, 2], paths, lengths)
        np.testing.assert_array_equal(corpus.walk(0), [2, 3, 4, 5, 6])
        np.testing.assert_array_equal(corpus.walk(1), [3, 4])
        np.testing.assert_array_equal(corpus.walk(2), [7])
        np.testing.assert_array_equal(corpus.walk(3), [9, 0])
        assert corpus.is_spilled
        recount = np.bincount(np.asarray(corpus.tokens),
                              minlength=corpus.num_nodes)
        np.testing.assert_array_equal(corpus.occurrences, recount)
        corpus.close()


# --------------------------------------------------------------------- #
# update_embedding orchestration
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def base_graph():
    return powerlaw_cluster(60, attach=3, triangle_prob=0.3, seed=4)


@pytest.fixture(scope="module")
def churn(base_graph):
    return random_churn(base_graph, 0.05, seed=1)


class TestUpdateEmbedding:
    def test_update_matches_delta_and_preserves_untouched_rows(
            self, base_graph):
        # 1% churn: small enough that some nodes appear in no stale walk
        churn = random_churn(base_graph, 0.01, seed=1)
        prev = embed_graph(base_graph, **SMALL)
        before = prev.embeddings.copy()
        changed = DeltaCSR(base_graph).apply(churn).changed_arcs()
        stale_ids = audit_walks(prev.corpus, changed, kernel="huge",
                                audit="arc")  # before the in-place patch
        result = apply_edge_stream(base_graph, churn, prev, audit="arc",
                                   **SMALL)
        reference = DeltaCSR(base_graph).apply(churn).compact()
        np.testing.assert_array_equal(result.graph.indptr,
                                      reference.indptr)
        np.testing.assert_array_equal(result.graph.indices,
                                      reference.indices)
        assert result.stats["stale_walks"] > 0
        assert result.stats["stale_walks"] < result.stats["total_walks"]
        assert result.corpus is prev.corpus  # patched in place
        assert result.embeddings.shape == before.shape
        assert np.isfinite(result.embeddings).all()
        # train_scope="stale": a node absent from every (resampled)
        # stale walk keeps its warm-start input vector byte for byte
        assert result.stats["stale_walks"] == stale_ids.size
        offsets = np.asarray(result.corpus.offsets)
        tokens = np.asarray(result.corpus.tokens)
        touched = np.zeros(result.graph.num_nodes, dtype=bool)
        for wid in stale_ids:
            touched[tokens[offsets[wid]:offsets[wid + 1]]] = True
        untouched = np.flatnonzero(~touched)
        assert untouched.size  # the churn is small; most rows untouched
        np.testing.assert_array_equal(result.embeddings[untouched],
                                      before[untouched])

    def test_noop_stream_short_circuits(self, base_graph):
        prev = embed_graph(base_graph, **SMALL)
        noop = EdgeStream.from_edits(deletes=[(0, 59)] if not
                                     base_graph.has_edge(0, 59) else
                                     [(58, 59)])
        assert not base_graph.has_edge(*[int(x) for x in
                                         (noop.src[0], noop.dst[0])])
        result = update_embedding(
            base_graph, noop, corpus=prev.corpus,
            embeddings=prev.embeddings, model=prev.model,
            walk_machines=prev.walk_machines, assignment=prev.assignment,
            num_machines=2, seed=7)
        assert result.stats["stale_walks"] == 0
        assert result.embeddings is prev.embeddings
        np.testing.assert_array_equal(result.graph.indptr,
                                      base_graph.indptr)

    def test_update_is_deterministic(self, base_graph, churn):
        outs = []
        for _ in range(2):
            prev = embed_graph(base_graph, **SMALL)
            result = apply_edge_stream(base_graph, churn, prev,
                                       audit="arc", **SMALL)
            outs.append(result.embeddings)
        np.testing.assert_array_equal(outs[0], outs[1])

    def test_executor_byte_parity(self, base_graph, churn):
        """One update step is byte-identical across execution modes."""
        outs = {}
        for execution, workers in (("serial", 0), ("process", 2),
                                   ("pipeline", 2)):
            prev = embed_graph(base_graph, execution=execution,
                               workers=workers, **SMALL)
            result = apply_edge_stream(base_graph, churn, prev,
                                       audit="arc", execution=execution,
                                       workers=workers, **SMALL)
            outs[execution] = result.embeddings
        np.testing.assert_array_equal(outs["serial"], outs["process"])
        np.testing.assert_array_equal(outs["serial"], outs["pipeline"])

    def test_new_node_grows_universe(self, base_graph):
        prev = embed_graph(base_graph, **SMALL)
        stream = EdgeStream.from_edits(inserts=[(0, 63)])
        result = apply_edge_stream(base_graph, stream, prev, **SMALL)
        assert result.graph.num_nodes == 64
        assert result.embeddings.shape[0] == 64
        assert result.assignment.size == 64
        assert np.isfinite(result.embeddings).all()

    def test_chained_updates(self, base_graph):
        prev = embed_graph(base_graph, **SMALL)
        step1 = apply_edge_stream(base_graph,
                                  random_churn(base_graph, 0.03, seed=2),
                                  prev, **SMALL)
        step2 = apply_edge_stream(step1.graph,
                                  random_churn(step1.graph, 0.03, seed=3),
                                  step1, **SMALL)
        assert step2.embeddings.shape[1] == SMALL["dim"]
        assert np.isfinite(step2.embeddings).all()

    def test_store_refreshed_in_place(self, base_graph, churn):
        from repro.serving.store import EmbeddingStore

        prev = embed_graph(base_graph, **SMALL)
        store = EmbeddingStore.from_array(
            prev.embeddings.astype(np.float32), mode="shared")
        try:
            assert store.generation == 0
            result = apply_edge_stream(base_graph, churn, prev,
                                       audit="arc", store=store, **SMALL)
            assert store.generation > 0
            np.testing.assert_array_equal(
                np.asarray(store.embeddings),
                result.embeddings.astype(np.float32))
        finally:
            store.close()

    def test_full_scope_touches_every_row(self, base_graph, churn):
        prev = embed_graph(base_graph, **SMALL)
        result = apply_edge_stream(base_graph, churn, prev, audit="arc",
                                   train_scope="full", **SMALL)
        assert result.stats["train_tokens"] >= \
            result.corpus.total_tokens  # one epoch sweeps the corpus

    def test_validation(self, base_graph, churn):
        prev = embed_graph(base_graph, **SMALL)
        with pytest.raises(ValueError, match="train_scope"):
            apply_edge_stream(base_graph, churn, prev,
                              train_scope="bogus", **SMALL)
        with pytest.raises(ValueError, match="update_epochs"):
            apply_edge_stream(base_graph, churn, prev, update_epochs=0,
                              **SMALL)
        with pytest.raises(ValueError, match="fullpath"):
            update_embedding(
                base_graph, churn, corpus=prev.corpus,
                embeddings=prev.embeddings,
                walk_config=WalkConfig.huge_d())
