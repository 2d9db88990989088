"""Persona-regularized training: anchor math, parity gates, golden run.

Three layers of the persona workload's trainer contract:

* **Anchor math** -- :class:`AnchorRegularizer` validation and row-space
  scatter, plus the per-slice pull
  ``φ_in[r] += lr·λ·(1 − σ(φ_in[r]·a_r))·a_r`` checked against a direct
  NumPy transcription (through the array-ops seam, torch skip-gated).
* **Parity** -- ``lam=0, warm_start=False`` persona runs are
  byte-identical to plain DistGER on the persona graph, on every
  executor; ``lam>0`` runs are byte-identical *across* executors (the
  anchor pull consumes no negative draws, so the shared-counter RNG
  protocol is untouched).
* **Golden run** -- one pinned persona pipeline on the
  overlapping-community family (AUC/norm bands, exact persona count),
  plus the machine-count invariance of anchored training.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    PersonaConfig,
    embed_graph,
    embed_persona_graph,
    persona_pair_scores,
)
from repro.embedding import DistributedTrainer, TrainConfig
from repro.embedding.anchor import AnchorRegularizer, RowAnchor
from repro.embedding.model import EmbeddingModel
from repro.embedding.ops import NumpyOps
from repro.embedding.sgns import BaseLearner
from repro.embedding.vocab import Vocabulary
from repro.graph import overlapping_community_graph, persona_graph
from repro.partition import WorkloadBalancePartitioner
from repro.runtime import Cluster
from repro.tasks import split_edges
from repro.tasks.metrics import auc_score
from repro.walks import DistributedWalkEngine, WalkConfig

DIM = 16
MACHINES = 2

#: Committed expectations of the pinned persona run (measured at the
#: introduction of this test; bands as in tests/test_golden_pipeline.py).
GOLDEN = {
    "auc": (0.8565, 0.06),
    "num_personas": 276,          # exact: the split is deterministic
    "embedding_norm": (1.9489, 0.15),
    "corpus_tokens": (6810, 0.03),
}


@pytest.fixture(scope="module")
def community_graph():
    graph, _membership = overlapping_community_graph(
        120, 12, overlap_fraction=0.5, within_degree=7.0,
        cross_degree=0.1, seed=7)
    return graph


def _fixed_prior(num_nodes: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((num_nodes, DIM)).astype(np.float32)


class TestAnchorRegularizer:
    def test_rejects_non_2d_anchors(self):
        with pytest.raises(ValueError, match="2-D"):
            AnchorRegularizer(np.zeros(4, dtype=np.float32), 0.1)

    def test_rejects_negative_lam(self):
        with pytest.raises(ValueError, match="lam"):
            AnchorRegularizer(np.zeros((2, 4), dtype=np.float32), -0.1)

    def test_rejects_non_finite_lam(self):
        with pytest.raises(ValueError, match="lam"):
            AnchorRegularizer(np.zeros((2, 4), dtype=np.float32),
                              float("nan"))

    def test_row_space_rejects_dim_mismatch(self):
        anchor = AnchorRegularizer(np.zeros((3, 4), dtype=np.float32), 0.1)
        vocab = Vocabulary.from_occurrences(np.array([5, 3, 1]))
        with pytest.raises(ValueError, match="dim"):
            anchor.row_space(vocab, 8)

    def test_row_space_scatters_through_the_vocab_permutation(self):
        # Occurrences [1, 9, 4] -> frequency order is node 1, 2, 0.
        vocab = Vocabulary.from_occurrences(np.array([1, 9, 4]))
        anchors = np.arange(12, dtype=np.float32).reshape(3, 4)
        rows = AnchorRegularizer(anchors, 0.5).row_space(vocab, 4)
        for node in range(3):
            np.testing.assert_array_equal(
                rows[vocab.node_to_row[node]], anchors[node])

    def test_row_space_zero_pads_nodes_without_anchors(self):
        # Vocab over 4 nodes, anchors only for the first 2: the other
        # rows anchor to zero (no pull).
        vocab = Vocabulary.from_occurrences(np.array([4, 3, 2, 1]))
        anchors = np.ones((2, 4), dtype=np.float32)
        rows = AnchorRegularizer(anchors, 0.5).row_space(vocab, 4)
        np.testing.assert_array_equal(rows[vocab.node_to_row[2]],
                                      np.zeros(4))
        np.testing.assert_array_equal(rows[vocab.node_to_row[3]],
                                      np.zeros(4))


def _manual_pull(dst, rows, anchors, scale):
    """Direct float32 transcription of the anchor-pull update."""
    out = dst.copy()
    current = out[rows]
    logits = np.einsum("ij,ij->i", current, anchors)
    coeff = ((np.float32(1.0) - np.float32(1.0) /
              (np.float32(1.0) + np.exp(-logits.astype(np.float32))))
             * np.float32(scale))
    np.add.at(out, rows, coeff[:, None] * anchors)
    return out


class TestAnchorPullMath:
    def test_numpy_ops_matches_direct_transcription(self):
        rng = np.random.default_rng(5)
        dst = rng.standard_normal((8, 6)).astype(np.float32)
        rows = np.array([0, 3, 7], dtype=np.int64)
        anchors = rng.standard_normal((3, 6)).astype(np.float32)
        expected = _manual_pull(dst, rows, anchors, 0.05)
        NumpyOps().anchor_pull(dst, rows, anchors, 0.05)
        np.testing.assert_allclose(dst, expected, rtol=1e-6)
        # Untouched rows stay byte-identical.
        untouched = np.setdiff1d(np.arange(8), rows)
        np.testing.assert_array_equal(dst[untouched], expected[untouched])

    def test_torch_cpu_matches_numpy(self):
        pytest.importorskip("torch")
        from repro.embedding.ops import TorchOps

        rng = np.random.default_rng(6)
        dst = rng.standard_normal((8, 6)).astype(np.float32)
        rows = np.array([1, 2, 6], dtype=np.int64)
        anchors = rng.standard_normal((3, 6)).astype(np.float32)
        reference = dst.copy()
        NumpyOps().anchor_pull(reference, rows, anchors, 0.1)
        ops = TorchOps(device="cpu")
        buf = ops.upload(dst)
        ops.anchor_pull(buf, rows, ops.upload(anchors), 0.1)
        np.testing.assert_array_equal(ops.download(buf), reference)

    def _learner(self, num_nodes: int = 5):
        vocab = Vocabulary.from_occurrences(
            np.arange(num_nodes, 0, -1, dtype=np.int64))
        model = EmbeddingModel(vocab, dim=DIM, seed=3)
        config = TrainConfig(dim=DIM, epochs=1, seed=3)
        # The pull never draws negatives, so no sampler is needed.
        return BaseLearner(model, sampler=None, config=config,
                           neg_stream=None)

    def test_apply_anchor_pulls_unique_touched_rows(self):
        learner = self._learner()
        anchor_rows = np.random.default_rng(7).standard_normal(
            (5, DIM)).astype(np.float32)
        learner.anchor = RowAnchor(anchor_rows, 0.5)
        before = learner.model.phi_in.copy()
        # Walks touch nodes {0, 2} (node 2 twice -- one pull, not two).
        walks = [np.array([0, 2]), np.array([2])]
        learner.apply_anchor(walks, lr=0.1)
        rows = np.unique(learner.model.vocab.rows_of(np.array([0, 2])))
        expected = _manual_pull(before, rows, anchor_rows[rows], 0.1 * 0.5)
        np.testing.assert_allclose(learner.model.phi_in, expected,
                                   rtol=1e-6)
        untouched = np.setdiff1d(np.arange(5), rows)
        np.testing.assert_array_equal(learner.model.phi_in[untouched],
                                      before[untouched])

    def test_apply_anchor_is_a_noop_without_anchor_or_at_lam_zero(self):
        for anchor in (None, RowAnchor(np.ones((5, DIM), np.float32), 0.0)):
            learner = self._learner()
            learner.anchor = anchor
            before = learner.model.phi_in.copy()
            learner.apply_anchor([np.array([0, 1, 2])], lr=0.1)
            np.testing.assert_array_equal(learner.model.phi_in, before)

    def test_apply_anchor_ignores_empty_slices(self):
        learner = self._learner()
        learner.anchor = RowAnchor(np.ones((5, DIM), np.float32), 0.5)
        before = learner.model.phi_in.copy()
        learner.apply_anchor([], lr=0.1)
        np.testing.assert_array_equal(learner.model.phi_in, before)


class TestLamZeroParity:
    """λ=0 + ``warm_start=False`` == plain DistGER on the persona graph."""

    @pytest.mark.parametrize("execution", ["serial", "process", "pipeline"])
    def test_byte_identical_to_plain_path(self, community_graph, execution):
        graph = community_graph
        off = PersonaConfig(lam=0.0, warm_start=False,
                            prior=np.zeros((graph.num_nodes, DIM),
                                           dtype=np.float32))
        kwargs = ({} if execution == "serial"
                  else {"execution": execution, "workers": 2})
        plain = embed_graph(persona_graph(graph).graph,
                            num_machines=MACHINES, dim=DIM, epochs=1,
                            seed=0, **kwargs)
        run = embed_persona_graph(graph, num_machines=MACHINES, dim=DIM,
                                  epochs=1, seed=0, persona=off, **kwargs)
        np.testing.assert_array_equal(run.embeddings, plain.embeddings)

    def test_torch_cpu_backend_matches_numpy(self, community_graph):
        pytest.importorskip("torch")
        graph = community_graph
        off = PersonaConfig(lam=0.0, warm_start=False,
                            prior=np.zeros((graph.num_nodes, DIM),
                                           dtype=np.float32))
        runs = [embed_persona_graph(graph, num_machines=MACHINES, dim=DIM,
                                    epochs=1, seed=0, persona=off,
                                    train_overrides={"backend": backend})
                for backend in ("numpy", "torch")]
        np.testing.assert_array_equal(runs[0].embeddings,
                                      runs[1].embeddings)


class TestLamPositiveParity:
    """The anchored path itself is executor-invariant: the pull consumes
    no negative draws, and every executor interleaves it at the same
    point (once per training slice, after the slice's SGNS updates)."""

    def test_executors_agree_at_positive_lam(self, community_graph):
        graph = community_graph
        cfg = PersonaConfig(lam=0.1,
                            prior=_fixed_prior(graph.num_nodes))
        runs = {}
        for execution in ("serial", "process", "pipeline"):
            kwargs = ({} if execution == "serial"
                      else {"execution": execution, "workers": 2})
            runs[execution] = embed_persona_graph(
                graph, num_machines=MACHINES, dim=DIM, epochs=1, seed=0,
                persona=cfg, **kwargs).embeddings
        np.testing.assert_array_equal(runs["serial"], runs["process"])
        np.testing.assert_array_equal(runs["serial"], runs["pipeline"])

    def test_positive_lam_actually_changes_the_embeddings(self,
                                                          community_graph):
        graph = community_graph
        prior = _fixed_prior(graph.num_nodes)
        base = embed_persona_graph(
            graph, num_machines=MACHINES, dim=DIM, epochs=1, seed=0,
            persona=PersonaConfig(lam=0.0, warm_start=False, prior=prior))
        pulled = embed_persona_graph(
            graph, num_machines=MACHINES, dim=DIM, epochs=1, seed=0,
            persona=PersonaConfig(lam=0.5, warm_start=False, prior=prior))
        assert not np.array_equal(base.embeddings, pulled.embeddings)


class TestGoldenPersonaRun:
    @pytest.fixture(scope="class")
    def golden_run(self, community_graph):
        split = split_edges(community_graph, test_fraction=0.3, seed=1)
        run = embed_persona_graph(split.train_graph, num_machines=MACHINES,
                                  dim=DIM, epochs=2, seed=7)
        return run, split

    def test_persona_count_is_pinned(self, golden_run):
        run, _ = golden_run
        assert run.num_personas == GOLDEN["num_personas"]

    def test_link_prediction_auc(self, golden_run):
        run, split = golden_run
        pos = persona_pair_scores(run.embeddings, run.persona_offsets,
                                  split.test_positive)
        neg = persona_pair_scores(run.embeddings, run.persona_offsets,
                                  split.test_negative)
        auc = auc_score(pos, neg)
        expected, tol = GOLDEN["auc"]
        assert abs(auc - expected) <= tol, \
            f"persona AUC {auc:.4f} left the golden band {expected}±{tol}"

    def test_embedding_norms(self, golden_run):
        run, _ = golden_run
        norm = float(np.linalg.norm(run.embeddings, axis=1).mean())
        expected, rtol = GOLDEN["embedding_norm"]
        assert abs(norm - expected) <= rtol * expected
        assert np.all(np.isfinite(run.embeddings))

    def test_corpus_tokens(self, golden_run):
        run, _ = golden_run
        expected, rtol = GOLDEN["corpus_tokens"]
        assert abs(run.result.stats["corpus_tokens"] - expected) <= \
            rtol * expected

    def test_result_mappings_are_consistent(self, golden_run):
        run, split = golden_run
        n = split.train_graph.num_nodes
        assert run.prior.shape == (n, DIM)
        assert run.persona_offsets.shape == (n + 1,)
        assert np.array_equal(
            run.base_of,
            np.repeat(np.arange(n), np.diff(run.persona_offsets)))
        assert run.base_embeddings().shape == (n, DIM)


class TestMachineCountInvariance:
    """Anchored training inherits the walker protocol's invariance: the
    persona graph is a plain CSRGraph, so corpora sampled over it do not
    depend on the walk-machine count, and training them with an anchor on
    a fixed cluster yields identical embeddings."""

    def test_anchored_training_invariant_to_walk_machine_count(
            self, community_graph):
        split = persona_graph(community_graph)
        pgraph = split.graph
        prior = _fixed_prior(community_graph.num_nodes)
        anchor = AnchorRegularizer(prior[split.base_of], 0.1)
        embeddings = {}
        for machines in (1, 2, 4):
            part = WorkloadBalancePartitioner().partition(pgraph, machines)
            cluster = Cluster(machines, part.assignment, seed=5)
            cfg = WalkConfig.distger(max_rounds=2, min_rounds=1)
            walk_result = DistributedWalkEngine(pgraph, cluster, cfg).run()
            train_cluster = Cluster(
                2, np.zeros(pgraph.num_nodes, dtype=np.int64), seed=0)
            trainer = DistributedTrainer(
                walk_result.corpus, train_cluster,
                TrainConfig(dim=DIM, epochs=1, seed=11), anchor=anchor)
            embeddings[machines] = trainer.train().embeddings
        np.testing.assert_array_equal(embeddings[1], embeddings[2])
        np.testing.assert_array_equal(embeddings[1], embeddings[4])
