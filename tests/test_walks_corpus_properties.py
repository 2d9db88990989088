"""Corpus-invariants property suite for the flat walk storage.

The corpus is a CSR-style flat token block + monotone offsets with the
list API preserved as views (see :mod:`repro.walks.corpus`).  This suite
pins the representation invariants that every consumer (vocab build,
window planner, sync-round slicing, the shared-memory slice-descriptor
protocol) relies on:

* offsets are monotone and exhaustive -- every token belongs to exactly
  one walk, walk ``i`` is ``tokens[offsets[i]:offsets[i + 1]]``;
* ``add_walk`` and ``add_walks`` build byte-identical flat state;
* flat ↔ list views round trip losslessly (including through npz
  save/load, zero-length walks and empty corpora included);
* a ``(lo, hi)`` shard slice resolves to the same walks however it is
  cut, and subsampling decisions are indexed by corpus position;
* iteration order is stable under process execution -- the parent's
  ``add_walks`` flush preserves walk-id order no matter how many workers
  produced the padded path rows.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import powerlaw_cluster
from repro.partition.balance import WorkloadBalancePartitioner
from repro.runtime import Cluster, ExecutionContext
from repro.walks import Corpus, DistributedWalkEngine, WalkConfig

NUM_NODES = 23

walk_lists = st.lists(
    st.lists(st.integers(0, NUM_NODES - 1), min_size=1, max_size=12),
    min_size=0, max_size=20,
)


def build_corpus(walks) -> Corpus:
    corpus = Corpus(NUM_NODES)
    for walk in walks:
        corpus.add_walk(walk)
    return corpus


def padded_matrix(walks):
    """The (paths, lengths) layout the batch engines flush through."""
    lengths = np.array([len(w) for w in walks], dtype=np.int64)
    cap = max(1, int(lengths.max()) if lengths.size else 1)
    paths = np.full((len(walks), cap), -1, dtype=np.int64)
    for i, walk in enumerate(walks):
        paths[i, :len(walk)] = walk
    return paths, lengths


def assert_flat_equal(a: Corpus, b: Corpus) -> None:
    assert a.num_nodes == b.num_nodes
    np.testing.assert_array_equal(a.tokens, b.tokens)
    np.testing.assert_array_equal(a.offsets, b.offsets)
    np.testing.assert_array_equal(a.occurrences, b.occurrences)


class TestOffsetsInvariants:
    @given(walks=walk_lists)
    @settings(max_examples=50, deadline=None)
    def test_offsets_monotone_and_exhaustive(self, walks):
        corpus = build_corpus(walks)
        offsets = corpus.offsets
        assert offsets[0] == 0
        assert np.all(np.diff(offsets) >= 0)
        assert offsets[-1] == corpus.total_tokens == corpus.tokens.size
        np.testing.assert_array_equal(
            corpus.walk_lengths, [len(w) for w in walks])
        np.testing.assert_array_equal(
            corpus.tokens,
            np.concatenate([np.asarray(w) for w in walks])
            if walks else np.empty(0, dtype=np.int64))

    @given(walks=walk_lists)
    @settings(max_examples=50, deadline=None)
    def test_occurrences_match_token_block(self, walks):
        corpus = build_corpus(walks)
        np.testing.assert_array_equal(
            corpus.occurrences,
            np.bincount(corpus.tokens, minlength=NUM_NODES))

    @given(walks=walk_lists)
    @settings(max_examples=50, deadline=None)
    def test_walk_views_cover_the_block(self, walks):
        corpus = build_corpus(walks)
        assert len(corpus.walks) == len(walks)
        for i, walk in enumerate(walks):
            np.testing.assert_array_equal(corpus.walks[i], walk)
            np.testing.assert_array_equal(corpus.walk(i), walk)
        # Views alias the flat block -- zero copy.
        if walks and len(walks[0]):
            assert corpus.walk(0).base is not None


class TestAddWalkAddWalksParity:
    @given(walks=walk_lists.filter(len))
    @settings(max_examples=50, deadline=None)
    def test_batch_flush_equals_serial_appends(self, walks):
        serial = build_corpus(walks)
        batched = Corpus(NUM_NODES)
        paths, lengths = padded_matrix(walks)
        batched.add_walks(paths, lengths)
        assert_flat_equal(serial, batched)

    @given(walks=walk_lists.filter(lambda ws: len(ws) >= 2),
           split=st.integers(1, 19))
    @settings(max_examples=50, deadline=None)
    def test_chunked_batches_equal_one_batch(self, walks, split):
        split = min(split, len(walks) - 1)
        chunked = Corpus(NUM_NODES)
        for chunk in (walks[:split], walks[split:]):
            paths, lengths = padded_matrix(chunk)
            chunked.add_walks(paths, lengths)
        assert_flat_equal(build_corpus(walks), chunked)

    def test_add_walks_rejects_empty_rows_and_bad_ids(self):
        corpus = Corpus(4)
        with pytest.raises(ValueError, match="at least one token"):
            corpus.add_walks(np.zeros((1, 3), dtype=np.int64),
                             np.array([0]))
        with pytest.raises(ValueError, match="outside the universe"):
            corpus.add_walks(np.array([[7, 1]]), np.array([2]))
        with pytest.raises(ValueError, match="exceeds the path"):
            # A length wider than the matrix would silently desync
            # offsets from the token block; it must be rejected.
            corpus.add_walks(np.array([[1, 2]]), np.array([5]))
        assert corpus.num_walks == 0  # rejected batches leave no trace
        # A batch whose padding holds out-of-range garbage is fine: only
        # the valid prefixes are read.
        paths = np.array([[1, 99, -5], [2, 3, 99]], dtype=np.int64)
        corpus.add_walks(paths, np.array([1, 2]))
        np.testing.assert_array_equal(corpus.tokens, [1, 2, 3])


class TestFlatListRoundTrips:
    @given(walks=walk_lists)
    @settings(max_examples=50, deadline=None)
    def test_from_flat_round_trip(self, walks):
        corpus = build_corpus(walks)
        rebuilt = Corpus.from_flat(NUM_NODES, corpus.tokens, corpus.offsets)
        assert_flat_equal(corpus, rebuilt)
        # ... and the rebuilt corpus stays growable.
        rebuilt.add_walk([0, 1])
        assert rebuilt.num_walks == corpus.num_walks + 1

    @given(walks=walk_lists)
    @settings(max_examples=50, deadline=None)
    def test_list_view_rebuild_round_trip(self, walks):
        corpus = build_corpus(walks)
        rebuilt = Corpus(NUM_NODES)
        for walk in corpus.walks:
            rebuilt.add_walk(walk)
        assert_flat_equal(corpus, rebuilt)

    def test_from_flat_accepts_zero_length_walks(self):
        corpus = Corpus.from_flat(5, [0, 1, 2], [0, 0, 2, 2, 3])
        assert corpus.num_walks == 4
        np.testing.assert_array_equal(corpus.walk_lengths, [0, 2, 0, 1])
        assert corpus.walk(0).size == 0
        np.testing.assert_array_equal(corpus.occurrences, [1, 1, 1, 0, 0])

    def test_from_flat_validation(self):
        with pytest.raises(ValueError, match="start at 0"):
            Corpus.from_flat(3, [0, 1], [1, 2])
        with pytest.raises(ValueError, match="token block"):
            Corpus.from_flat(3, [0, 1], [0, 1])
        with pytest.raises(ValueError, match="monotone"):
            Corpus.from_flat(3, [0, 1], [0, 2, 1, 2])
        with pytest.raises(ValueError, match="outside the universe"):
            Corpus.from_flat(3, [0, 5], [0, 2])
        with pytest.raises(ValueError, match="tokens.*float64"):
            Corpus.from_flat(3, [0.5, 1.0], [0, 2])
        with pytest.raises(ValueError, match="offsets.*float32"):
            Corpus.from_flat(3, [0, 1], np.array([0, 2], dtype=np.float32))

    def test_merge_preserves_flat_layout(self):
        a = build_corpus([[0, 1], [2]])
        b = Corpus.from_flat(NUM_NODES, [3, 4], [0, 0, 2])
        a.merge(b)
        np.testing.assert_array_equal(a.tokens, [0, 1, 2, 3, 4])
        np.testing.assert_array_equal(a.offsets, [0, 2, 3, 3, 5])

    def test_empty_and_single_token_walks(self):
        corpus = Corpus(3)
        corpus.add_walk([])            # documented no-op
        assert corpus.num_walks == 0
        corpus.add_walk([2])
        assert corpus.num_walks == 1
        np.testing.assert_array_equal(corpus.walk(0), [2])
        np.testing.assert_array_equal(corpus.walk(-1), [2])
        with pytest.raises(IndexError):
            corpus.walk(1)


class TestSaveLoadRoundTrips:
    @pytest.mark.parametrize("suffix", ("npz", "txt"))
    @given(walks=walk_lists)
    @settings(max_examples=25, deadline=None)
    def test_round_trip_both_formats(self, tmp_path_factory, suffix, walks):
        corpus = build_corpus(walks)
        path = str(tmp_path_factory.mktemp("corpus") / f"c.{suffix}")
        corpus.save(path)
        assert_flat_equal(corpus, Corpus.load(path))

    @pytest.mark.parametrize("suffix", ("npz", "txt"))
    def test_empty_corpus_round_trip(self, tmp_path, suffix):
        corpus = Corpus(7)
        path = str(tmp_path / f"empty.{suffix}")
        corpus.save(path)
        loaded = Corpus.load(path)
        assert loaded.num_nodes == 7
        assert loaded.num_walks == 0
        assert loaded.total_tokens == 0

    @pytest.mark.parametrize("suffix", ("npz", "txt"))
    def test_zero_length_walks_round_trip(self, tmp_path, suffix):
        """Zero-length walks have a flat encoding and survive it."""
        corpus = Corpus.from_flat(6, [4, 5, 1], [0, 0, 2, 2, 2, 3])
        path = str(tmp_path / f"zeros.{suffix}")
        corpus.save(path)
        loaded = Corpus.load(path)
        assert_flat_equal(corpus, loaded)
        np.testing.assert_array_equal(loaded.walk_lengths, [0, 2, 0, 0, 1])

    def test_non_npz_file_is_refused(self, tmp_path):
        """The one-walk-per-line text format is gone; the error names
        the file."""
        path = tmp_path / "legacy.txt"
        path.write_text("# num_nodes=9\n0 1 2\n8 7\n")
        with pytest.raises(ValueError, match="legacy.txt"):
            Corpus.load(str(path))

    @pytest.mark.parametrize("keep", (0.5, 0.9, 0.99))
    def test_truncated_archive_is_refused(self, tmp_path, keep):
        path = tmp_path / "cut.npz"
        build_corpus([[0, 1, 2], [3, 4]]).save(str(path))
        data = path.read_bytes()
        path.write_bytes(data[:int(len(data) * keep)])
        with pytest.raises(ValueError, match="cut.npz.*not a readable"):
            Corpus.load(str(path))

    @pytest.mark.parametrize("member", ("num_nodes", "tokens", "offsets"))
    def test_missing_member_is_refused(self, tmp_path, member):
        path = tmp_path / "partial.npz"
        members = dict(tokens=np.array([0, 1], dtype=np.int64),
                       offsets=np.array([0, 2], dtype=np.int64),
                       num_nodes=np.int64(3))
        del members[member]
        with open(path, "wb") as handle:
            np.savez(handle, **members)
        with pytest.raises(ValueError,
                           match=f"partial.npz.*{member} is not a file"):
            Corpus.load(str(path))

    @pytest.mark.parametrize("member, value", (
        ("tokens", np.array([0.5, 1.0])),
        ("offsets", np.array([0.0, 2.0])),
        ("num_nodes", np.float64(3.0)),
        ("tokens", np.array([True, False])),
    ))
    def test_non_integer_arrays_are_refused(self, tmp_path, member, value):
        """Float tokens were once cast to int64 and loaded as a walk."""
        path = tmp_path / "floats.npz"
        members = dict(tokens=np.array([0, 1], dtype=np.int64),
                       offsets=np.array([0, 2], dtype=np.int64),
                       num_nodes=np.int64(3))
        members[member] = value
        with open(path, "wb") as handle:
            np.savez(handle, **members)
        with pytest.raises(ValueError, match=f"floats.npz.*{value.dtype}"):
            Corpus.load(str(path))


class TestFlushOrdering:
    """``add_walks`` flush ordering: walk-id order is preserved no matter
    how the padded rows were produced (worker slices write their rows
    independently; the parent flushes the whole round once)."""

    @given(walks=walk_lists.filter(lambda ws: len(ws) >= 4),
           workers=st.sampled_from([1, 2, 4]))
    @settings(max_examples=40, deadline=None)
    def test_worker_sliced_writes_flush_in_row_order(self, walks, workers):
        from repro.runtime.executor import split_ranges

        paths, lengths = padded_matrix(walks)
        shared_paths = np.full_like(paths, -7)   # the shared output buffer
        shared_lengths = np.zeros_like(lengths)
        ranges = split_ranges(len(walks), workers)
        # Workers complete in arbitrary order; each writes only its slice.
        for lo, hi in reversed(ranges):
            shared_paths[lo:hi] = paths[lo:hi]
            shared_lengths[lo:hi] = lengths[lo:hi]
        flushed = Corpus(NUM_NODES)
        flushed.add_walks(shared_paths, shared_lengths)
        assert_flat_equal(build_corpus(walks), flushed)

    @pytest.mark.parametrize("workers", (1, 2, 4))
    @pytest.mark.parametrize("kind", ("directed", "weighted"))
    def test_engine_corpora_byte_exact_across_workers(self, kind, workers):
        """End to end: process rounds with 1/2/4 workers flush the same
        flat corpus, byte for byte, as the serial engine -- on directed
        and weighted graphs (the cases with dead ends / non-uniform
        draws)."""
        corpora = {}
        for execution, n_workers in (("serial", 0), ("process", workers)):
            graph = powerlaw_cluster(90, attach=3, triangle_prob=0.3, seed=6)
            if kind == "weighted":
                graph = graph.with_random_weights(np.random.default_rng(8))
            else:
                graph = graph.as_directed()
            part = WorkloadBalancePartitioner().partition(graph, 3)
            cluster = Cluster(3, part.assignment, seed=4)
            cfg = WalkConfig.distger(max_rounds=2, min_rounds=2,
                                     context=ExecutionContext(
                                         execution, n_workers))
            corpora[execution] = DistributedWalkEngine(
                graph, cluster, cfg).run().corpus
        assert_flat_equal(corpora["serial"], corpora["process"])

    @pytest.mark.parametrize("backing", ("shm", "mmap"))
    @pytest.mark.parametrize("subsample", (0.0, 1e-3))
    def test_descriptor_rounds_ship_constant_bytes(self, subsample, backing):
        """Process training over the flat corpus ships slice descriptors:
        the recorded per-round task bytes stay O(machines), not O(slice
        tokens) -- subsampled or not, whichever way the blocks are
        shared."""
        from repro.embedding import DistributedTrainer, TrainConfig

        graph = powerlaw_cluster(120, attach=4, triangle_prob=0.4, seed=2)
        part = WorkloadBalancePartitioner().partition(graph, 2)
        cluster = Cluster(2, part.assignment, seed=5)
        cfg = WalkConfig.distger(max_rounds=2, min_rounds=2)
        walk_result = DistributedWalkEngine(graph, cluster, cfg).run()
        train_cluster = Cluster(2, part.assignment, seed=9)
        result = DistributedTrainer(
            walk_result.corpus, train_cluster,
            TrainConfig(dim=8, epochs=1, seed=11, subsample=subsample,
                        context=ExecutionContext("process", 2, backing)),
            walk_machines=walk_result.walk_machines).train()
        rounds = result.extras["ipc_rounds"]
        assert rounds > 0
        # A descriptor is five scalars; even with pickle framing a round
        # of two machines stays far below one pickled walk batch.
        assert 0 < result.extras["ipc_task_bytes"] / rounds < 1024

    def test_iteration_order_stable_under_process_execution(self):
        """The list view iterates walks in walk-id order for both
        executors -- the property the trainer's shard slicing rests on."""
        graph = powerlaw_cluster(70, attach=3, seed=1)
        part = WorkloadBalancePartitioner().partition(graph, 2)
        out = {}
        for execution, workers in (("serial", 0), ("process", 2)):
            cluster = Cluster(2, part.assignment, seed=3)
            cfg = WalkConfig.distger(max_rounds=1, min_rounds=1,
                                     context=ExecutionContext(
                                         execution, workers))
            result = DistributedWalkEngine(graph, cluster, cfg).run()
            out[execution] = [walk.tolist() for walk in result.corpus.walks]
        assert out["serial"] == out["process"]


class TestFlatConsumers:
    """The trainer-side consumers read flat state, never the walk list."""

    @given(walks=walk_lists)
    @settings(max_examples=25, deadline=None)
    def test_vocab_from_occurrences_matches_from_corpus(self, walks):
        from repro.embedding import Vocabulary

        corpus = build_corpus(walks)
        a = Vocabulary.from_corpus(corpus)
        b = Vocabulary.from_occurrences(corpus.occurrences)
        np.testing.assert_array_equal(a.row_to_node, b.row_to_node)
        np.testing.assert_array_equal(a.node_to_row, b.node_to_row)
        np.testing.assert_array_equal(a.row_counts, b.row_counts)

    @given(walks=walk_lists)
    @settings(max_examples=25, deadline=None)
    def test_count_windows_flat_matches_loop(self, walks):
        from repro.embedding import count_windows, count_windows_flat

        corpus = build_corpus(walks)
        assert count_windows_flat(corpus.walk_lengths, window=3) == \
            count_windows(list(corpus.walks), window=3)


class TestShardWalks:
    @given(walks=st.lists(st.lists(st.integers(0, NUM_NODES - 1),
                                   max_size=12), max_size=20),
           subsampled=st.booleans(), data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_any_split_resolves_to_the_whole(self, walks, subsampled, data):
        """The slice-descriptor resolver: ``[lo, hi)`` resolved whole
        equals any split of it resolved in pieces, and the kept tokens
        are exactly the corpus positions the counter stream selects."""
        from repro.utils.rng import stream_uniforms
        from repro.walks.corpus import shard_walks

        tokens = np.array([v for w in walks for v in w], dtype=np.int64)
        offsets = np.cumsum([0] + [len(w) for w in walks])
        shard = np.array(data.draw(st.permutations(range(len(walks)))),
                         dtype=np.int64)
        cuts = sorted(data.draw(st.lists(st.integers(0, len(walks)),
                                         min_size=2, max_size=5)))
        keep = np.linspace(0.0, 1.0, NUM_NODES) if subsampled else None
        key = data.draw(st.integers(0, 2**64 - 1))

        def resolve(lo, hi):
            return [w.tolist() for w in
                    shard_walks(tokens, offsets, shard, lo, hi, keep, key)]

        kept = np.ones(tokens.size, dtype=bool)
        if subsampled:
            kept = stream_uniforms(np.uint64(key), np.arange(
                tokens.size, dtype=np.uint64)) < keep[tokens]
        expected = [tokens[a:b][kept[a:b]].tolist()
                    for a, b in ((offsets[j], offsets[j + 1])
                                 for j in shard[cuts[0]:cuts[-1]])]
        assert resolve(cuts[0], cuts[-1]) == [w for w in expected if w] == \
            [w for lo, hi in zip(cuts, cuts[1:]) for w in resolve(lo, hi)]


class TestStreamingContract:
    """CorpusFeed, the walk→train finished-event of the pipeline."""

    def test_wait_finished_times_out_until_finish(self):
        from repro.walks.corpus import CorpusFeed

        feed = CorpusFeed(Corpus(NUM_NODES))
        assert not feed.finished
        with pytest.raises(TimeoutError):
            feed.wait_finished(timeout=0.01)
        feed.finish()
        assert feed.finished
        feed.wait_finished(timeout=0.01)
