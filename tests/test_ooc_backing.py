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

import glob
import os
import pickle
import tempfile

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
        corpus grows its token file several times and reproduces the
        flat block byte for byte."""
        ref = self.build_reference(kind)
        spilled = Corpus(ref.occurrences.size)
        spill_dir = spilled.spill_to(str(tmp_path))
        tokens_file = os.path.join(spill_dir, "tokens.npy")
        try:
            assert spilled.is_spilled
            sizes = [os.stat(tokens_file).st_size]
            for walk in ref.walks:
                spilled.add_walk(walk)
                size = os.stat(tokens_file).st_size
                if size != sizes[-1]:
                    sizes.append(size)
            assert len(sizes) - 1 >= 3, sizes
            assert sizes == sorted(sizes)
            spilled.shrink_to_fit()
            assert_corpora_equal(ref, spilled)
            assert isinstance(spilled.tokens, np.memmap)
        finally:
            spilled.close()

    def test_reading_a_spilled_corpus_never_writes(self, tmp_path):
        """Views, iteration, the storage split and pickling leave every
        spill file's inode, size and mtime as they were."""
        ref = self.build_reference("directed")
        spilled = Corpus(ref.occurrences.size)
        spill_dir = spilled.spill_to(str(tmp_path))
        try:
            spilled.merge(ref)

            def signatures():
                stats = {name: os.stat(os.path.join(spill_dir, name))
                         for name in sorted(os.listdir(spill_dir))}
                return {name: (st.st_ino, st.st_size, st.st_mtime_ns)
                        for name, st in stats.items()}

            before = signatures()
            assert sorted(before) == ["offsets.npy", "tokens.npy"]
            np.testing.assert_array_equal(spilled.tokens, ref.tokens)
            np.testing.assert_array_equal(spilled.offsets, ref.offsets)
            np.testing.assert_array_equal(spilled.walk(3), ref.walk(3))
            assert sum(w.size for w in spilled) == ref.total_tokens
            assert spilled.storage_bytes()["mapped"] > 0
            assert_corpora_equal(ref, pickle.loads(pickle.dumps(spilled)))
            assert signatures() == before
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
# One storage path: the block helpers serve both backings
# ------------------------------------------------------------------ #


def synthetic_walks(count=600, num_nodes=97, seed=11):
    """``count`` walks of 1..40 tokens -- about 12k tokens, enough to
    grow a fresh corpus's token block four times."""
    rng = np.random.default_rng(seed)
    return [rng.integers(0, num_nodes, size=int(n), dtype=np.int64)
            for n in rng.integers(1, 41, size=count)]


def corpus_of(walks, num_nodes=97):
    corpus = Corpus(num_nodes)
    for walk in walks:
        corpus.add_walk(walk)
    return corpus


def padded(walks):
    lengths = np.array([len(w) for w in walks], dtype=np.int64)
    paths = np.zeros((len(walks), int(lengths.max())), dtype=np.int64)
    for row, walk in enumerate(walks):
        paths[row, :len(walk)] = walk
    return paths, lengths


@pytest.fixture(params=("ram", "mmap"))
def blank(request, tmp_path):
    """An empty 97-node corpus on either backing; spilled ones close."""
    corpus = Corpus(97)
    if request.param == "mmap":
        corpus.spill_to(str(tmp_path))
    yield corpus
    corpus.close()


def spill_files(corpus):
    return sorted(os.listdir(corpus.spill_dir)) if corpus.is_spilled \
        else []


class TestOneStoragePath:
    """Growth, shrink and splice copy blocks through the same helpers
    whatever the backing, and land on the in-RAM bytes."""

    def test_growth_reproduces_the_flat_block(self, blank):
        walks = synthetic_walks()
        for walk in walks:
            blank.add_walk(walk)
        assert_corpora_equal(corpus_of(walks), blank)
        assert blank.is_spilled == isinstance(blank.tokens, np.memmap)
        assert spill_files(blank) in ([], ["offsets.npy", "tokens.npy"])

    def test_shrink_to_fit_is_exact_and_appends_regrow(self, blank):
        walks = synthetic_walks()
        blank.add_walks(*padded(walks[:300]))
        blank.shrink_to_fit()
        logical = (blank.total_tokens + blank.num_walks + 1) * 8
        split = blank.storage_bytes()
        assert split["resident"] + split["mapped"] == \
            logical + blank.occurrences.nbytes
        if blank.is_spilled:
            tokens_file = os.path.join(blank.spill_dir, "tokens.npy")
            header = os.stat(tokens_file).st_size - blank.total_tokens * 8
            assert 0 < header <= 128
        blank.add_walks(*padded(walks[300:]))
        assert_corpora_equal(corpus_of(walks), blank)

    def test_length_changing_splice_equals_a_rebuilt_corpus(self, blank):
        walks = synthetic_walks()
        for walk in walks:
            blank.add_walk(walk)
        indices = np.array([0, 5, 6, 299, 599], dtype=np.int64)
        fresh = [np.full(len(walks[i]) % 7 + 1, i % 97, dtype=np.int64)
                 for i in indices]
        blank.replace_walks(indices, *padded(fresh))
        expected = list(walks)
        for i, walk in zip(indices.tolist(), fresh):
            expected[i] = walk
        assert_corpora_equal(corpus_of(expected), blank)
        assert blank.tokens.size == blank.total_tokens
        assert spill_files(blank) in ([], ["offsets.npy", "tokens.npy"])

    def test_same_length_splice_writes_in_place(self, blank):
        walks = synthetic_walks()
        for walk in walks:
            blank.add_walk(walk)
        before = blank.tokens
        inode = os.stat(os.path.join(blank.spill_dir, "tokens.npy")
                        ).st_ino if blank.is_spilled else None
        fresh = [np.zeros_like(walks[4]), np.ones_like(walks[9])]
        blank.replace_walks([4, 9], *padded(fresh))
        assert np.shares_memory(before, blank.tokens)
        np.testing.assert_array_equal(blank.walk(4), fresh[0])
        np.testing.assert_array_equal(blank.walk(9), fresh[1])
        if blank.is_spilled:
            assert os.stat(os.path.join(blank.spill_dir, "tokens.npy")
                           ).st_ino == inode
            on_disk = np.load(os.path.join(blank.spill_dir, "tokens.npy"))
            np.testing.assert_array_equal(
                on_disk[:blank.total_tokens], blank.tokens)

    def test_block_copy_spans_many_chunks(self, blank, monkeypatch):
        """A copy longer than one chunk is split at chunk boundaries
        without dropping or shifting a token."""
        monkeypatch.setattr("repro.walks.corpus._COPY_CHUNK", 7)
        walks = synthetic_walks(count=120)
        for walk in walks:
            blank.add_walk(walk)
        blank.shrink_to_fit()
        blank.replace_walks([60], *padded([np.array([1], np.int64)]))
        expected = list(walks)
        expected[60] = np.array([1], dtype=np.int64)
        assert_corpora_equal(corpus_of(expected), blank)

    @pytest.mark.parametrize("at", (0, 250, 600))
    def test_spill_mid_build_keeps_the_bytes(self, at, tmp_path):
        """Spilling after any prefix of the appends copies that prefix
        onto the maps and keeps appending through them."""
        walks = synthetic_walks()
        corpus = corpus_of(walks[:at])
        try:
            corpus.spill_to(str(tmp_path))
            for walk in walks[at:]:
                corpus.add_walk(walk)
            assert isinstance(corpus.tokens, np.memmap)
            assert_corpora_equal(corpus_of(walks), corpus)
        finally:
            corpus.close()

    def test_appends_after_close_move_to_ram(self, tmp_path):
        walks = synthetic_walks()
        corpus = corpus_of(walks[:100])
        corpus.spill_to(str(tmp_path))
        corpus.shrink_to_fit()
        corpus.close()
        assert isinstance(corpus.tokens, np.memmap)
        for walk in walks[100:]:
            corpus.add_walk(walk)
        assert not isinstance(corpus.tokens, np.memmap)
        assert os.listdir(str(tmp_path)) == []
        assert_corpora_equal(corpus_of(walks), corpus)

    def test_spill_handles_follow_a_splice(self, tmp_path):
        walks = synthetic_walks(count=50)
        corpus = corpus_of(walks)
        corpus.spill_to(str(tmp_path))
        handles = None
        try:
            corpus.replace_walks([3], *padded([np.arange(45) % 97]))
            handles = corpus.spill_handles()
            np.testing.assert_array_equal(
                attach_shared_array(handles[0]), corpus.tokens)
            np.testing.assert_array_equal(
                attach_shared_array(handles[1]), corpus.offsets)
            np.testing.assert_array_equal(corpus.walk(3), np.arange(45))
        finally:
            if handles is not None:
                for handle in handles:
                    detach_shared_array(handle.path)
            corpus.close()

    def test_empty_spilled_corpus_keeps_one_slot(self, tmp_path):
        corpus = Corpus(5)
        corpus.spill_to(str(tmp_path))
        try:
            corpus.shrink_to_fit()
            assert corpus.tokens.size == 0
            np.testing.assert_array_equal(corpus.offsets, [0])
            assert corpus.storage_bytes()["mapped"] == 2 * 8
            with pytest.raises(RuntimeError, match="empty"):
                corpus.spill_handles()
            corpus.add_walk([4, 0])
            np.testing.assert_array_equal(corpus.walk(0), [4, 0])
        finally:
            corpus.close()


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

    def test_default_spill_dir_sits_under_the_leak_pattern(self,
                                                            reference):
        """With no ``spill_dir`` the corpus spills to ``repro-spill-*``
        under the temp dir -- the glob the leak checks count -- and
        ``close`` removes it."""
        graph, _ = reference
        run = embed_graph(graph, num_machines=3, dim=12, epochs=1, seed=7,
                          execution="process", workers=2, backing="mmap")
        spill_dir = run.corpus.spill_dir
        try:
            assert spill_dir in glob.glob(
                os.path.join(tempfile.gettempdir(), "repro-spill-*"))
        finally:
            run.corpus.close()
        assert not os.path.exists(spill_dir)

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
