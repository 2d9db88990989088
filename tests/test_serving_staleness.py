"""Norm-cache staleness regressions: updated stores must never serve
stale scorer state.

The bug class under test: :class:`BatchTopKScorer` caches row norms (and
optionally the normalised matrix and gathered catalogues) at
construction; :class:`EmbeddingStore` computes norms once in the parent.
Before the generation counter, rewriting the embedding matrix left every
one of those caches describing the *old* matrix -- cosine scores mixed
new vectors with old norms, silently.  Likewise the
:func:`attach_shared_array` mmap cache matched entries on shape/dtype
alone, so a same-shape file rewrite kept serving the superseded bytes.

The fault-injection style here: construct matrices whose *norms* change
radically between generations (so any stale-norm mix is guaranteed to
change cosine rankings, not just scores), update, and demand byte
equality with a freshly built scorer.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.serving.engine import QueryEngine
from repro.serving.scorer import BatchTopKScorer, row_norms
from repro.serving.store import EmbeddingStore, StoreHandle
from repro.utils.sharedmem import (
    SharedArrayHandle,
    attach_shared_array,
    detach_shared_array,
)


def _norm_skewed_pair(n=40, d=8, seed=3):
    """Two matrices whose row-norm *rankings* disagree wildly.

    Generation 0 scales even rows by 100; generation 1 scales odd rows.
    A scorer that divides new vectors by old norms inverts the cosine
    ranking for half the catalogue -- stale state cannot hide.
    """
    rng = np.random.default_rng(seed)
    gen0 = rng.standard_normal((n, d)).astype(np.float32)
    gen0[::2] *= 100.0
    gen1 = rng.standard_normal((n, d)).astype(np.float32)
    gen1[1::2] *= 100.0
    return gen0, gen1


def _reference(matrix, nodes, k):
    scorer = BatchTopKScorer(np.asarray(matrix))
    return scorer.top_k(np.asarray(nodes, dtype=np.int64), k=k)


class TestStoreGeneration:
    def test_update_bumps_generation_and_norms(self):
        gen0, gen1 = _norm_skewed_pair()
        with EmbeddingStore.from_array(gen0, mode="shared") as store:
            assert store.generation == 0
            store.update(gen1)
            assert store.generation == 1
            np.testing.assert_array_equal(store.norms, row_norms(gen1))
            np.testing.assert_array_equal(np.asarray(store.embeddings),
                                          gen1)

    def test_refresh_norms_after_direct_write(self):
        gen0, gen1 = _norm_skewed_pair()
        with EmbeddingStore.from_array(gen0, mode="shared") as store:
            store.embeddings[...] = gen1  # in-place write through the view
            assert not np.array_equal(store.norms, row_norms(gen1))
            gen = store.refresh_norms()
            assert gen == store.generation == 1
            np.testing.assert_array_equal(store.norms, row_norms(gen1))

    def test_memory_mode_update_adopts_any_shape(self):
        gen0, _ = _norm_skewed_pair()
        store = EmbeddingStore.from_array(gen0, mode="memory")
        bigger = np.ones((gen0.shape[0] + 5, gen0.shape[1]),
                         dtype=np.float32)
        store.update(bigger)
        assert store.num_nodes == gen0.shape[0] + 5
        assert store.generation == 1

    def test_shared_mode_rejects_resize_and_attached_rejects_update(self):
        gen0, gen1 = _norm_skewed_pair()
        with EmbeddingStore.from_array(gen0, mode="shared") as store:
            with pytest.raises(ValueError, match="shape"):
                store.update(gen1[:-1])
            attached = EmbeddingStore.attach(store.handle)
            with pytest.raises(RuntimeError, match="read-only"):
                attached.update(gen1)
            with pytest.raises(RuntimeError, match="read-only"):
                attached.refresh_norms()

    def test_attached_store_sees_owner_generation(self):
        gen0, gen1 = _norm_skewed_pair()
        with EmbeddingStore.from_array(gen0, mode="shared") as store:
            attached = EmbeddingStore.attach(store.handle)
            assert attached.generation == 0
            store.update(gen1)
            assert attached.generation == 1
            np.testing.assert_array_equal(attached.norms, store.norms)

    def test_pre_generation_handles_still_attach(self):
        gen0, _ = _norm_skewed_pair()
        with EmbeddingStore.from_array(gen0, mode="shared") as store:
            old_style = StoreHandle(store.handle.embeddings,
                                    store.handle.norms)
            attached = EmbeddingStore.attach(old_style)
            assert attached.generation == 0  # degraded, not broken
            np.testing.assert_array_equal(
                np.asarray(attached.embeddings), gen0)

    def test_mmap_store_update_flushes_to_disk(self, tmp_path):
        gen0, gen1 = _norm_skewed_pair()
        path = str(tmp_path / "emb.npy")
        with EmbeddingStore.from_array(gen0, mode="mmap",
                                       path=path) as store:
            store.update(gen1)
            on_disk = np.load(path)
            np.testing.assert_array_equal(on_disk, gen1)
            assert store.generation == 1

    def test_readonly_mmap_refuses_inplace_update(self, tmp_path):
        gen0, gen1 = _norm_skewed_pair()
        path = str(tmp_path / "emb.npy")
        np.save(path, gen0)
        with EmbeddingStore.open(path) as store:
            with pytest.raises(ValueError, match="read-only"):
                store.update(gen1)


class TestEngineRebuild:
    """The regression proper: queries after an update must equal a fresh
    scorer's bytes on every execution path."""

    def test_inprocess_scorer_rebuilds(self):
        gen0, gen1 = _norm_skewed_pair()
        store = EmbeddingStore.from_array(gen0.copy(), mode="memory")
        with QueryEngine(store, workers=0) as engine:
            nodes = [0, 1, 2, 3]
            stale_answer = engine.query(nodes, k=5)
            store.update(gen1)
            fresh = engine.query(nodes, k=5)
            want = _reference(gen1, nodes, 5)
            np.testing.assert_array_equal(fresh.ids, want.ids)
            np.testing.assert_array_equal(fresh.scores, want.scores)
            # the fault was real: the old answer differs from the new one
            assert not np.array_equal(stale_answer.ids, fresh.ids)

    def test_worker_scorer_rebuilds(self):
        gen0, gen1 = _norm_skewed_pair()
        with EmbeddingStore.from_array(gen0, mode="shared") as store, \
                QueryEngine(store, workers=2) as engine:
            nodes = [0, 1, 2, 3]
            # warm every worker's scorer on generation 0
            for _ in range(4):
                engine.query(nodes, k=5)
            store.update(gen1)
            want = _reference(gen1, nodes, 5)
            for _ in range(4):  # each request may land on either worker
                got = engine.query(nodes, k=5)
                np.testing.assert_array_equal(got.ids, want.ids)
                np.testing.assert_array_equal(got.scores, want.scores)

    def test_stale_norms_would_misrank(self):
        """Documents the injected fault: mixing gen-1 vectors with gen-0
        norms really does invert rankings (the scenario the generation
        counter exists to prevent)."""
        gen0, gen1 = _norm_skewed_pair()
        poisoned = BatchTopKScorer(gen1, norms=row_norms(gen0))
        correct = BatchTopKScorer(gen1)
        bad = poisoned.top_k(np.array([0]), k=5)
        good = correct.top_k(np.array([0]), k=5)
        assert not np.array_equal(bad.ids, good.ids)


class TestMmapAttachCache:
    def test_same_shape_rewrite_invalidates_cache(self, tmp_path):
        path = str(tmp_path / "arr.npy")
        first = np.arange(12, dtype=np.float64).reshape(3, 4)
        np.save(path, first)
        handle = SharedArrayHandle("", (3, 4), "<f8", path=path)
        try:
            view = attach_shared_array(handle)
            np.testing.assert_array_equal(view, first)
            second = first + 100.0
            time.sleep(0.01)  # ensure the mtime ticks
            np.save(path, second)
            np.testing.assert_array_equal(attach_shared_array(handle),
                                          second)
        finally:
            detach_shared_array(path)

    def test_unlink_and_recreate_invalidates_cache(self, tmp_path):
        path = str(tmp_path / "arr.npy")
        first = np.zeros((2, 2))
        np.save(path, first)
        handle = SharedArrayHandle("", (2, 2), "<f8", path=path)
        try:
            attach_shared_array(handle)
            os.unlink(path)
            np.save(path, np.ones((2, 2)))  # fresh inode, same shape
            np.testing.assert_array_equal(attach_shared_array(handle),
                                          np.ones((2, 2)))
        finally:
            detach_shared_array(path)

    def test_unchanged_file_reuses_cached_map(self, tmp_path):
        path = str(tmp_path / "arr.npy")
        np.save(path, np.zeros(4))
        handle = SharedArrayHandle("", (4,), "<f8", path=path)
        try:
            first = attach_shared_array(handle)
            assert attach_shared_array(handle) is first
        finally:
            detach_shared_array(path)
