"""Out-of-core backing (``backing="mmap"``): byte parity and spill semantics.

The backing knob is a pure *transport* choice: every executor moves the
same bytes whether the shared blocks live in ``/dev/shm`` or in
file-backed ``.npy`` maps, because all randomness is counter-based and
workers only ever read the shared inputs.  This suite pins that claim --
corpora, assignments and embeddings byte-identical to shm across
serial/process/pipeline -- plus the :class:`repro.walks.corpus.Corpus`
spill path's equivalence to the in-RAM corpus and the knob's routing
through configs, ``embed_graph`` and the CLI.
"""

from __future__ import annotations

import os
import pickle

import numpy as np
import pytest

from repro.api import embed_graph
from repro.embedding import TrainConfig
from repro.graph import powerlaw_cluster
from repro.partition import PartitionConfig
from repro.partition.balance import WorkloadBalancePartitioner
from repro.runtime import Cluster, ExecutionContext
from repro.utils.sharedmem import attach_shared_array, detach_shared_array
from repro.walks import DistributedWalkEngine, WalkConfig
from repro.walks.corpus import Corpus

WORKER_COUNTS = (1, 2, 4)
GRAPHS = ("undirected", "weighted", "directed")


def graph_family(kind):
    if kind == "undirected":
        return powerlaw_cluster(150, attach=4, triangle_prob=0.4, seed=2)
    if kind == "weighted":
        return powerlaw_cluster(130, attach=3, seed=3).with_random_weights(
            np.random.default_rng(4))
    if kind == "directed":
        return powerlaw_cluster(130, attach=3, triangle_prob=0.3,
                                seed=5).as_directed()
    raise KeyError(kind)


def run_walks(graph, execution, workers=0, machines=3, backing=None,
              spill_dir=None):
    part = WorkloadBalancePartitioner().partition(graph, machines)
    cluster = Cluster(machines, part.assignment, seed=5)
    cfg = WalkConfig.distger(max_rounds=2, min_rounds=2,
                             context=ExecutionContext(execution, workers,
                                                      backing, spill_dir))
    return DistributedWalkEngine(graph, cluster, cfg).run(), cluster


def assert_corpora_equal(ref, other):
    np.testing.assert_array_equal(ref.tokens, other.tokens)
    np.testing.assert_array_equal(ref.offsets, other.offsets)
    np.testing.assert_array_equal(ref.occurrences, other.occurrences)


# ------------------------------------------------------------------ #
# Corpus spill path
# ------------------------------------------------------------------ #


class TestCorpusSpill:
    def build_reference(self, kind):
        # Pin shm so the reference stays in-RAM even when the suite runs
        # under REPRO_BACKING=mmap (the CI out-of-core job does).
        result, _ = run_walks(graph_family(kind), "serial", backing="shm")
        return result.corpus

    @pytest.mark.parametrize("kind", ("directed", "weighted"))
    def test_spilled_append_equals_in_ram(self, kind, tmp_path):
        """Replaying a real engine corpus walk-by-walk into a spilled
        corpus reproduces the flat block byte for byte."""
        ref = self.build_reference(kind)
        spilled = Corpus(ref.occurrences.size)
        spilled.spill_to(str(tmp_path), stage_tokens=257)
        try:
            assert spilled.is_spilled
            for walk in ref.walks:
                spilled.add_walk(walk)
            spilled.shrink_to_fit()
            assert_corpora_equal(ref, spilled)
            assert isinstance(spilled.tokens, np.memmap)
        finally:
            spilled.close()

    @pytest.mark.parametrize("kind", ("directed", "weighted"))
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_engine_mmap_corpus_byte_identical(self, kind, workers,
                                               tmp_path):
        """The engine under backing="mmap" spills the corpus and still
        lands on the serial shm bytes at 1/2/4 workers."""
        ref = self.build_reference(kind)
        result, _ = run_walks(graph_family(kind), "process", workers,
                              backing="mmap", spill_dir=str(tmp_path))
        corpus = result.corpus
        assert corpus.is_spilled
        assert_corpora_equal(ref, corpus)
        corpus.close()

    def test_pipeline_mmap_corpus_byte_identical(self, tmp_path):
        ref = self.build_reference("directed")
        result, _ = run_walks(graph_family("directed"), "pipeline", 2,
                              backing="mmap", spill_dir=str(tmp_path))
        assert result.corpus.is_spilled
        assert_corpora_equal(ref, result.corpus)
        result.corpus.close()

    def test_spill_handles_share_the_corpus_files(self, tmp_path):
        ref = self.build_reference("directed")
        spilled = Corpus(ref.occurrences.size)
        spilled.spill_to(str(tmp_path))
        handles = None
        try:
            for walk in ref.walks:
                spilled.add_walk(walk)
            handles = spilled.spill_handles()
            tokens_handle, offsets_handle = handles
            assert tokens_handle.path.startswith(str(tmp_path))
            np.testing.assert_array_equal(
                attach_shared_array(tokens_handle), ref.tokens)
            np.testing.assert_array_equal(
                attach_shared_array(offsets_handle), ref.offsets)
        finally:
            if handles is not None:
                for handle in handles:
                    detach_shared_array(handle.path)
            spilled.close()

    def test_spill_is_idempotent_and_rejected_when_unspilled(self,
                                                             tmp_path):
        corpus = Corpus(10)
        with pytest.raises(RuntimeError, match="spill"):
            corpus.spill_handles()
        corpus.spill_to(str(tmp_path))
        first = corpus.spill_dir
        corpus.spill_to(str(tmp_path))  # no-op, keeps the directory
        assert corpus.spill_dir == first
        corpus.close()

    def test_storage_split_accounts_resident_vs_mapped(self, tmp_path):
        ref = self.build_reference("undirected")
        spilled = Corpus(ref.occurrences.size)
        spilled.spill_to(str(tmp_path))
        try:
            for walk in ref.walks:
                spilled.add_walk(walk)
            spilled.shrink_to_fit()
            split = spilled.storage_bytes()
            assert split["mapped"] >= ref.tokens.nbytes
            assert split["resident"] < split["mapped"]
            assert spilled.memory_bytes() == \
                split["resident"] + split["mapped"]
            in_ram = ref.storage_bytes()
            assert in_ram["mapped"] == 0
            assert in_ram["resident"] == ref.memory_bytes()
        finally:
            spilled.close()

    def test_pickle_and_save_roundtrip_materialise(self, tmp_path):
        ref = self.build_reference("undirected")
        spilled = Corpus(ref.occurrences.size)
        spilled.spill_to(str(tmp_path / "spill"))
        try:
            for walk in ref.walks:
                spilled.add_walk(walk)
            clone = pickle.loads(pickle.dumps(spilled))
            assert not clone.is_spilled
            assert_corpora_equal(ref, clone)
            target = str(tmp_path / "corpus.npz")
            spilled.save(target)
            assert_corpora_equal(ref, Corpus.load(target))
        finally:
            spilled.close()

    def test_close_removes_spill_directory(self, tmp_path):
        corpus = Corpus(20)
        corpus.spill_to(str(tmp_path))
        corpus.add_walk(np.array([1, 2, 3], dtype=np.int64))
        spill_dir = corpus.spill_dir
        assert os.path.isdir(spill_dir)
        corpus.close()
        assert not os.path.exists(spill_dir)
        assert not corpus.is_spilled


# ------------------------------------------------------------------ #
# End-to-end parity
# ------------------------------------------------------------------ #


class TestEmbedParity:
    @pytest.fixture(scope="class")
    def reference(self):
        graph = graph_family("undirected")
        # backing="shm" keeps the reference in-RAM regardless of any
        # REPRO_BACKING ambient default (the CI out-of-core job sets mmap).
        return graph, embed_graph(graph, num_machines=3, dim=12, epochs=1,
                                  seed=7, execution="serial", backing="shm")

    @pytest.mark.parametrize("execution", ("process", "pipeline"))
    def test_mmap_embeddings_byte_identical(self, reference, execution,
                                            tmp_path):
        graph, ref = reference
        run = embed_graph(graph, num_machines=3, dim=12, epochs=1, seed=7,
                          execution=execution, workers=2, backing="mmap",
                          spill_dir=str(tmp_path))
        np.testing.assert_array_equal(ref.embeddings, run.embeddings)
        assert ref.metrics.as_dict() == run.metrics.as_dict()
        assert run.stats["corpus_mapped_bytes"] > 0
        assert ref.stats["corpus_mapped_bytes"] == 0

    def test_mmap_matches_shm_under_process(self, reference, tmp_path):
        graph, _ = reference
        kwargs = dict(num_machines=3, dim=12, epochs=1, seed=7,
                      execution="process", workers=2)
        shm = embed_graph(graph, backing="shm", **kwargs)
        mm = embed_graph(graph, backing="mmap", spill_dir=str(tmp_path),
                         **kwargs)
        np.testing.assert_array_equal(shm.embeddings, mm.embeddings)

    def test_partition_assignment_parity(self, tmp_path):
        from repro.partition import ParallelMPGPPartitioner

        graph = graph_family("weighted")
        serial = ParallelMPGPPartitioner().partition(graph, 4).assignment
        proc = ParallelMPGPPartitioner(context=ExecutionContext(
            "process", 2, "mmap", str(tmp_path))).partition(
                graph, 4).assignment
        np.testing.assert_array_equal(serial, proc)


# ------------------------------------------------------------------ #
# Knob routing
# ------------------------------------------------------------------ #


class TestKnobRouting:
    def test_invalid_backing_rejected_everywhere(self):
        with pytest.raises(ValueError, match="backing"):
            ExecutionContext(backing="tmpfs")
        with pytest.raises(ValueError, match="backing"):
            embed_graph(powerlaw_cluster(30, attach=2, seed=1),
                        backing="tmpfs")

    def test_env_default_backing(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKING", "mmap")
        for config in (WalkConfig, TrainConfig, PartitionConfig):
            assert config().context.backing == "mmap"
        monkeypatch.setenv("REPRO_BACKING", "shm")
        assert WalkConfig().context.backing == "shm"

    def test_embed_graph_rejects_backing_for_non_walk_methods(self):
        graph = powerlaw_cluster(30, attach=2, seed=1)
        with pytest.raises(ValueError, match="backing"):
            embed_graph(graph, method="pbg", backing="mmap")

    def test_from_config_carries_backing(self):
        from repro.partition import ParallelMPGPPartitioner

        cfg = PartitionConfig(context=ExecutionContext(
            backing="mmap", spill_dir="/tmp/x"))
        partitioner = ParallelMPGPPartitioner.from_config(cfg)
        assert partitioner.context.backing == "mmap"
        assert partitioner.context.spill_dir == "/tmp/x"

    def test_cli_flags_route_to_backend_kwargs(self):
        from repro.cli import _backend_kwargs, build_parser

        parser = build_parser()
        args = parser.parse_args(
            ["embed", "--execution", "process", "--backing", "mmap",
             "--spill-dir", "/tmp/spill"])
        kwargs = _backend_kwargs(args)
        assert kwargs["backing"] == "mmap"
        assert kwargs["spill_dir"] == "/tmp/spill"
        with pytest.raises(SystemExit):
            parser.parse_args(["embed", "--backing", "tmpfs"])
