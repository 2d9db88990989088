"""Leak discipline and backing-mode tests for the shared embedding store.

The contract (see :mod:`repro.utils.sharedmem` and
:mod:`repro.serving.store`): allocation is atomic-or-unlinked.  A crash
anywhere between a segment's raw allocation and its owner's explicit
``close()`` must not orphan ``/dev/shm`` entries -- these tests force
failures at the seams (buffer wrapping, copy-in, group assembly) by
monkeypatching :meth:`SharedArray._wrap_buffer` and count the kernel's
actual segment directory before and after.  The mmap mode is checked for
round-tripping, read-only attaches and file persistence across close.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.serving.store import EmbeddingStore, StoreHandle
from repro.utils.sharedmem import (
    SharedArray,
    SharedArrayHandle,
    SharedGroup,
    attach_shared_array,
)

SHM_DIR = "/dev/shm"

pytestmark = pytest.mark.skipif(
    not os.path.isdir(SHM_DIR),
    reason="leak accounting reads the kernel's shm directory")


def shm_segments() -> set:
    return set(os.listdir(SHM_DIR))


@pytest.fixture
def shm_baseline():
    """Fail the test if it exits with more segments than it entered."""
    before = shm_segments()
    yield before
    leaked = shm_segments() - before
    assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"


class Boom(RuntimeError):
    pass


def _explode(*args, **kwargs):
    raise Boom("injected fault")


# --------------------------------------------------------------------- #
# SharedArray leak discipline
# --------------------------------------------------------------------- #


class TestSharedArrayLeaks:
    def test_empty_unlinks_when_wrap_fails(self, shm_baseline,
                                           monkeypatch):
        monkeypatch.setattr(SharedArray, "_wrap_buffer",
                            staticmethod(_explode))
        with pytest.raises(Boom):
            SharedArray.empty((8,), np.float64)

    def test_create_unlinks_when_copy_fails(self, shm_baseline,
                                            monkeypatch):
        # Let allocation succeed, then fail the copy-in: create() must
        # close (and thereby unlink) the fresh segment.
        source = np.arange(6, dtype=np.float64)
        original = SharedArray._wrap_buffer

        class Hostile(np.ndarray):
            def __setitem__(self, *a):
                raise Boom("injected fault")

        monkeypatch.setattr(
            SharedArray, "_wrap_buffer",
            staticmethod(lambda shape, dtype, buf:
                         original(shape, dtype, buf).view(Hostile)))
        with pytest.raises(Boom):
            SharedArray.create(source)

    def test_close_is_idempotent(self, shm_baseline):
        shared = SharedArray.create(np.arange(4))
        shared.close()
        shared.close()

    def test_del_backstop_reclaims_forgotten_segment(self, shm_baseline):
        shared = SharedArray.create(np.arange(4))
        del shared  # no explicit close(): __del__ must unlink

    def test_group_closes_remaining_arrays_past_a_failure(
            self, shm_baseline, monkeypatch):
        group = SharedGroup()
        first = group.adopt(SharedArray.create(np.arange(3)))
        second = group.adopt(SharedArray.create(np.arange(5)))
        real_close = first.close
        state = {"raised": False}

        def flaky_close():
            if not state["raised"]:
                state["raised"] = True
                raise Boom("injected fault")
            real_close()

        monkeypatch.setattr(first, "close", flaky_close)
        with pytest.raises(Boom):
            group.close()
        # The failure did not strand the *other* member...
        assert second.handle.name not in shm_segments()
        # ...and the failed member stays reclaimable afterwards.
        first.close()
        assert first.handle.name not in shm_segments()


class TestSharedArrayRoundTrip:
    def test_shm_attach_views_same_bytes(self, shm_baseline):
        source = np.arange(12, dtype=np.float32).reshape(3, 4)
        with SharedArray.create(source) as shared:
            view = attach_shared_array(shared.handle)
            np.testing.assert_array_equal(view, source)
            shared.array[0, 0] = 99.0
            assert view[0, 0] == 99.0  # same pages, no copy

    def test_handle_pickles(self, shm_baseline):
        import pickle

        with SharedArray.create(np.arange(3)) as shared:
            clone = pickle.loads(pickle.dumps(shared.handle))
            assert clone == shared.handle
        mm_handle = SharedArrayHandle("", (2, 2), "<f8", path="/tmp/x.npy")
        assert pickle.loads(pickle.dumps(mm_handle)).path == "/tmp/x.npy"


# --------------------------------------------------------------------- #
# File-backed mmap mode
# --------------------------------------------------------------------- #


class TestMmapMode:
    def test_create_file_round_trip(self, tmp_path):
        source = np.arange(20, dtype=np.float32).reshape(4, 5)
        path = str(tmp_path / "emb.npy")
        shared = SharedArray.create_file(path, source)
        assert shared.kind == "mmap"
        np.testing.assert_array_equal(shared.array, source)
        view = attach_shared_array(shared.handle)
        np.testing.assert_array_equal(view, source)
        shared.close()
        # The file is the persistent artifact; close() must keep it.
        assert os.path.exists(path)
        np.testing.assert_array_equal(
            SharedArray.from_file(path).array, source)

    def test_attach_is_read_only(self, tmp_path):
        path = str(tmp_path / "ro.npy")
        shared = SharedArray.create_file(path, np.zeros((2, 2)))
        view = attach_shared_array(shared.handle)
        with pytest.raises((ValueError, OSError)):
            view[0, 0] = 1.0
        shared.close()

    def test_attach_validates_shape_and_dtype(self, tmp_path):
        path = str(tmp_path / "v.npy")
        shared = SharedArray.create_file(path, np.zeros((2, 2)))
        shared.close()
        bad = SharedArrayHandle("", (3, 3), "<f8", path=path)
        with pytest.raises(ValueError, match="handle expects"):
            attach_shared_array(bad)

    def test_from_file_rejects_write_modes(self, tmp_path):
        with pytest.raises(ValueError, match="mode"):
            SharedArray.from_file(str(tmp_path / "x.npy"), mode="w+")

    def test_create_file_removes_partial_file_on_failure(self, tmp_path,
                                                         monkeypatch):
        path = str(tmp_path / "partial.npy")

        def bad_open_memmap(*args, **kwargs):
            # Simulate dying mid-write with the file already created.
            with open(path, "wb") as fh:
                fh.write(b"partial")
            raise Boom("disk died")

        monkeypatch.setattr(np.lib.format, "open_memmap",
                            bad_open_memmap)
        with pytest.raises(Boom):
            SharedArray.create_file(path, np.zeros(4))
        assert not os.path.exists(path)


# --------------------------------------------------------------------- #
# EmbeddingStore
# --------------------------------------------------------------------- #


class TestEmbeddingStore:
    def test_shared_mode_round_trip(self, shm_baseline):
        emb = np.arange(12, dtype=np.float32).reshape(6, 2)
        with EmbeddingStore.from_array(emb, mode="shared") as store:
            assert (store.num_nodes, store.dim) == (6, 2)
            np.testing.assert_array_equal(store.embeddings, emb)
            attached = EmbeddingStore.attach(store.handle)
            np.testing.assert_array_equal(attached.embeddings, emb)
            np.testing.assert_array_equal(attached.norms, store.norms)
            attached.close()  # attached stores never unlink

    def test_memory_mode_has_no_handle(self):
        store = EmbeddingStore.from_array(np.eye(3), mode="memory")
        with pytest.raises(ValueError, match="no cross-process handle"):
            store.handle
        store.close()

    def test_mmap_mode_serves_from_disk(self, tmp_path, shm_baseline):
        emb = np.arange(8, dtype=np.float64).reshape(4, 2)
        path = str(tmp_path / "store.npy")
        with EmbeddingStore.from_array(emb, mode="mmap",
                                       path=path) as store:
            assert isinstance(store.handle, StoreHandle)
            assert store.handle.embeddings.path == path
        assert os.path.exists(path)
        with EmbeddingStore.open(path) as reopened:
            np.testing.assert_array_equal(reopened.embeddings, emb)
            assert reopened.mode == "mmap"

    def test_open_word2vec_text(self, tmp_path):
        from repro.graph.io import save_embeddings

        emb = np.random.default_rng(0).standard_normal((5, 3))
        path = str(tmp_path / "vectors.emb")
        save_embeddings(path, emb)
        with EmbeddingStore.open(path, mode="memory") as store:
            np.testing.assert_allclose(store.embeddings, emb, rtol=1e-5)

    def test_save_produces_mmap_openable_npy(self, tmp_path):
        emb = np.arange(6, dtype=np.float32).reshape(3, 2)
        path = str(tmp_path / "out" / "emb.npy")
        with EmbeddingStore.from_array(emb, mode="memory") as store:
            store.save(path)
        with EmbeddingStore.open(path) as reopened:
            np.testing.assert_array_equal(reopened.embeddings, emb)

    def test_from_array_rejects_bad_input(self):
        with pytest.raises(ValueError, match="2-D"):
            EmbeddingStore.from_array(np.zeros(4))
        with pytest.raises(ValueError, match="unknown store mode"):
            EmbeddingStore.from_array(np.eye(2), mode="gpu")
        with pytest.raises(ValueError, match="needs a path"):
            EmbeddingStore.from_array(np.eye(2), mode="mmap")

    def test_failed_store_build_leaks_nothing(self, shm_baseline,
                                              monkeypatch):
        calls = {"n": 0}
        original = SharedArray._wrap_buffer

        def fail_second(shape, dtype, buf):
            # First segment (the matrix) succeeds; the norm cache dies.
            calls["n"] += 1
            if calls["n"] >= 2:
                raise Boom("injected fault")
            return original(shape, dtype, buf)

        monkeypatch.setattr(SharedArray, "_wrap_buffer",
                            staticmethod(fail_second))
        with pytest.raises(Boom):
            EmbeddingStore.from_array(np.eye(4), mode="shared")

    def test_norms_match_scorer_definition(self):
        from repro.serving.scorer import row_norms

        emb = np.random.default_rng(1).standard_normal((7, 3))
        with EmbeddingStore.from_array(emb, mode="memory") as store:
            np.testing.assert_array_equal(store.norms, row_norms(emb))


# --------------------------------------------------------------------- #
# Non-finite guard at the publish boundary
# --------------------------------------------------------------------- #


class TestNonFiniteGuard:
    """A NaN score would turn the selection threshold into NaN and the
    response into silent ``(-1, -inf)`` padding; the store refuses the
    matrix instead, naming the first offending row."""

    @pytest.mark.parametrize("poison", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("mode", ["memory", "shared"])
    def test_from_array_refuses_and_leaks_nothing(self, poison, mode,
                                                  shm_baseline):
        emb = np.ones((6, 3), dtype=np.float32)
        emb[4, 1] = poison
        emb[5, 0] = poison
        with pytest.raises(ValueError, match="embedding row 4 is not "
                                             "finite"):
            EmbeddingStore.from_array(emb, mode=mode)

    def test_open_refuses_a_poisoned_npy(self, tmp_path, shm_baseline):
        emb = np.ones((5, 2), dtype=np.float32)
        emb[3, 0] = np.nan
        path = str(tmp_path / "bad.npy")
        np.save(path, emb)
        with pytest.raises(ValueError, match="row 3"):
            EmbeddingStore.open(path)

    @pytest.mark.parametrize("mode", ["memory", "shared"])
    def test_update_refuses_before_writing(self, mode, shm_baseline):
        emb = np.arange(12, dtype=np.float32).reshape(6, 2)
        bad = emb + 1.0
        bad[2, 1] = np.nan
        with EmbeddingStore.from_array(emb, mode=mode) as store:
            norms = store.norms.copy()
            with pytest.raises(ValueError, match="row 2"):
                store.update(bad)
            # Nothing was published: matrix, norms, generation untouched.
            np.testing.assert_array_equal(store.embeddings, emb)
            np.testing.assert_array_equal(store.norms, norms)
            assert store.generation == 0
            assert store.update(emb + 1.0) == 1

    def test_update_catches_overflow_of_the_store_dtype(self,
                                                        shm_baseline):
        emb = np.ones((3, 2), dtype=np.float32)
        huge = np.full((3, 2), 1e300)  # finite in float64, inf in float32
        with EmbeddingStore.from_array(emb, mode="shared") as store:
            with np.errstate(over="ignore"), \
                    pytest.raises(ValueError, match="row 0"):
                store.update(huge)
            np.testing.assert_array_equal(store.embeddings, emb)

    def test_refresh_norms_refuses_a_direct_poisoned_write(self):
        with EmbeddingStore.from_array(np.ones((4, 2)),
                                       mode="memory") as store:
            store.embeddings[1, 0] = np.inf
            with pytest.raises(ValueError, match="row 1"):
                store.refresh_norms()
            assert store.generation == 0

    def test_zero_norm_rows_stay_legal(self):
        emb = np.zeros((4, 2), dtype=np.float32)
        emb[1] = [3.0, 4.0]
        with EmbeddingStore.from_array(emb, mode="memory") as store:
            np.testing.assert_array_equal(store.norms, [0, 5, 0, 0])
            assert store.update(np.zeros((4, 2), dtype=np.float32)) == 1
