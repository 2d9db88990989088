"""Golden-run regression: a tiny end-to-end pipeline with pinned metrics.

One fixed pipeline -- FL stand-in at scale 0.5, 30% of edges held out,
DistGER on 2 simulated machines -- is checked against committed expected
metrics with tolerances, so future refactors of the walk engine, trainer
or partitioner cannot silently shift embedding quality.  The bands are
wide enough for cross-platform libm noise (HuGE's acceptance
probabilities go through ``tanh``) but tight enough to catch real
regressions: when this test fails, quality moved -- treat the new numbers
as a finding, not as an inconvenience.

The second half pins the machine-count invariance the walker RNG protocol
guarantees (the documented default for all new code paths): sampled
corpora, and therefore trained embeddings, do not depend on how many
machines the walks were sharded across.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import embed_graph
from repro.embedding import DistributedTrainer, TrainConfig
from repro.graph import load, powerlaw_cluster
from repro.partition import WorkloadBalancePartitioner
from repro.runtime import Cluster, ExecutionContext
from repro.systems import DistGER
from repro.tasks import auc_from_split, split_edges
from repro.utils.rng import derive_seed
from repro.walks import DistributedWalkEngine, WalkConfig

from oracles.embedding import train_reference
from oracles.partition import GallopingMPGPPartitioner
from oracles.walks import LoopWalkEngine

#: Committed expectations (measured at the introduction of this test).
#: Tolerances are absolute for AUC, relative elsewhere.
GOLDEN = {
    "auc": (0.9386, 0.05),
    "corpus_tokens": (35333, 0.03),
    "avg_walk_length": (23.56, 0.10),
    "embedding_norm": (1.5147, 0.15),
}


@pytest.fixture(scope="module")
def golden_run():
    graph = load("FL", scale=0.5).graph
    split = split_edges(graph, test_fraction=0.3, seed=1)
    result = embed_graph(split.train_graph, method="distger",
                         num_machines=2, dim=24, epochs=4, seed=7)
    return result, split


class TestGoldenMetrics:
    def test_link_prediction_auc(self, golden_run):
        result, split = golden_run
        auc = auc_from_split(result.embeddings, split)
        expected, tol = GOLDEN["auc"]
        assert abs(auc - expected) <= tol, \
            f"AUC {auc:.4f} left the golden band {expected}±{tol}"

    def test_corpus_tokens(self, golden_run):
        result, _ = golden_run
        expected, rtol = GOLDEN["corpus_tokens"]
        assert abs(result.stats["corpus_tokens"] - expected) <= \
            rtol * expected

    def test_average_walk_length(self, golden_run):
        result, _ = golden_run
        expected, rtol = GOLDEN["avg_walk_length"]
        assert abs(result.stats["avg_walk_length"] - expected) <= \
            rtol * expected

    def test_embedding_norms(self, golden_run):
        result, _ = golden_run
        norm = float(np.linalg.norm(result.embeddings, axis=1).mean())
        expected, rtol = GOLDEN["embedding_norm"]
        assert abs(norm - expected) <= rtol * expected
        assert np.all(np.isfinite(result.embeddings))

    def test_backends_reproduce_the_golden_run(self, golden_run):
        """The three loop references composed -- galloping MPGP, the
        per-walker loop, the per-window DSGL learner -- land on the golden
        embeddings byte for byte (and so inside the same bands): a phase
        silently diverging from its reference shows up here even if the
        parity suites are skipped."""
        golden, split = golden_run
        graph = split.train_graph
        # DistGER's own configs and seeds (embed_graph's system), every
        # phase swapped for its oracle, run in-process.
        system = DistGER(num_machines=2, dim=24, epochs=4, seed=7,
                         context=ExecutionContext("serial"))
        partition = GallopingMPGPPartitioner(
            seed=system.partitioner.seed).partition(graph, 2)
        cluster = Cluster(2, partition.assignment, seed=derive_seed(7, 1))
        walks = LoopWalkEngine(graph, cluster, system.walk_config).run()
        trained = train_reference(walks.corpus, cluster, system.train_config,
                                  learner=system.learner,
                                  walk_machines=walks.walk_machines)
        np.testing.assert_array_equal(partition.assignment, golden.assignment)
        np.testing.assert_array_equal(walks.corpus.tokens,
                                      golden.corpus.tokens)
        np.testing.assert_array_equal(trained.embeddings, golden.embeddings)
        auc = auc_from_split(trained.embeddings, split)
        expected, tol = GOLDEN["auc"]
        assert abs(auc - expected) <= tol

    def test_process_execution_reproduces_the_golden_run(self, golden_run):
        """Executor choice is quality-invariant: ``execution="process"``
        lands byte-identically on the serial golden embeddings, and
        therefore inside the same committed AUC band."""
        result, split = golden_run
        process = embed_graph(split.train_graph, method="distger",
                              num_machines=2, dim=24, epochs=4, seed=7,
                              execution="process", workers=2)
        np.testing.assert_array_equal(result.embeddings, process.embeddings)
        auc = auc_from_split(process.embeddings, split)
        expected, tol = GOLDEN["auc"]
        assert abs(auc - expected) <= tol

    def test_pipeline_execution_reproduces_the_golden_run(self, golden_run):
        """The streaming executor -- MPGP partitioning overlapped with
        sampling, rounds flushed while the next round samples, deferred
        metric reconstruction, feed-gated slice training -- still lands
        byte-identically on the serial golden embeddings."""
        result, split = golden_run
        pipeline = embed_graph(split.train_graph, method="distger",
                               num_machines=2, dim=24, epochs=4, seed=7,
                               execution="pipeline", workers=2)
        np.testing.assert_array_equal(result.embeddings, pipeline.embeddings)
        np.testing.assert_array_equal(result.corpus.tokens,
                                      pipeline.corpus.tokens)
        np.testing.assert_array_equal(result.corpus.offsets,
                                      pipeline.corpus.offsets)
        auc = auc_from_split(pipeline.embeddings, split)
        expected, tol = GOLDEN["auc"]
        assert abs(auc - expected) <= tol


class TestMachineCountInvariance:
    """Corpora and embeddings are invariant to the walk-phase machine
    count under the walker protocol (the default)."""

    @pytest.fixture(scope="class")
    def corpora(self):
        graph = powerlaw_cluster(120, attach=4, triangle_prob=0.4, seed=3)
        out = {}
        for machines in (1, 2, 4):
            part = WorkloadBalancePartitioner().partition(graph, machines)
            cluster = Cluster(machines, part.assignment, seed=5)
            cfg = WalkConfig.distger(max_rounds=3, min_rounds=2)
            out[machines] = DistributedWalkEngine(graph, cluster, cfg).run()
        return out

    def test_corpora_byte_identical(self, corpora):
        ref = corpora[1].corpus
        for machines in (2, 4):
            other = corpora[machines].corpus
            assert len(ref.walks) == len(other.walks)
            for a, b in zip(ref.walks, other.walks):
                np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(ref.occurrences, other.occurrences)

    def test_embeddings_invariant_to_walk_machine_count(self, corpora):
        """Training the (identical) corpora on a fixed training cluster
        yields identical embeddings -- the sampling shard count leaves no
        trace in the final model."""
        embeddings = {}
        for machines, walk_result in corpora.items():
            cluster = Cluster(2, np.zeros(120, dtype=np.int64), seed=0)
            cfg = TrainConfig(dim=16, epochs=1, seed=11)
            trainer = DistributedTrainer(walk_result.corpus, cluster, cfg)
            embeddings[machines] = trainer.train().embeddings
        np.testing.assert_array_equal(embeddings[1], embeddings[2])
        np.testing.assert_array_equal(embeddings[1], embeddings[4])

    def test_fullpath_walks_also_invariant(self):
        """The walker protocol now covers the loop-only fullpath mode
        too (it is the default for every backend)."""
        graph = powerlaw_cluster(60, attach=3, seed=9)
        tokens = set()
        for machines in (1, 3):
            part = WorkloadBalancePartitioner().partition(graph, machines)
            cluster = Cluster(machines, part.assignment, seed=2)
            cfg = WalkConfig.huge_d(max_rounds=1, min_rounds=1)
            result = DistributedWalkEngine(graph, cluster, cfg).run()
            tokens.add(tuple(int(x) for walk in result.corpus.walks
                             for x in walk))
        assert len(tokens) == 1
