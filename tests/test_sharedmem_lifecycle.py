"""mmap-lifecycle contract of :mod:`repro.utils.sharedmem`.

Three bugs anchored this suite, each pinned by a regression test here:

* ``attach_shared_array`` cached mmap attaches by path and never
  invalidated, so a store rewritten with a different shape kept serving
  the stale generation (or failed) forever;
* ``SharedArray.close()`` in mmap mode only dropped the Python
  reference, leaving the underlying map -- and its file descriptor --
  open until GC (fd exhaustion in long-lived serving processes);
* the ``create_file`` failure path unlinked the half-written file while
  the map was still open, leaking the mapping.

The fd/map assertions read ``/proc/self/fd`` directly (psutil-free) and
skip on platforms without procfs.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.utils.sharedmem import (
    SharedArray,
    SharedArrayHandle,
    SharedGroup,
    attach_shared_array,
    attached_count,
    detach_shared_array,
    release_pages,
    resolve_backing,
)


def fd_targets():
    """Resolved paths of every open fd (skip the test without procfs)."""
    fd_dir = "/proc/self/fd"
    if not os.path.isdir(fd_dir):
        pytest.skip("/proc/self/fd not available")
    targets = []
    for entry in os.listdir(fd_dir):
        try:
            targets.append(os.readlink(os.path.join(fd_dir, entry)))
        except OSError:
            # The listing fd itself, or a raced-away descriptor.
            continue
    return targets


def fds_at(path) -> int:
    real = os.path.realpath(path)
    return sum(1 for target in fd_targets() if target == real)


# ------------------------------------------------------------------ #
# Bugfix 1: stale cache entries are invalidated, not served forever
# ------------------------------------------------------------------ #


class TestAttachCacheInvalidation:
    def test_attach_after_rewrite_serves_new_generation(self, tmp_path):
        """Regression: rewriting a spill file with a new shape must not
        keep serving the cached first-generation map."""
        path = str(tmp_path / "store.npy")
        first = SharedArray.create_file(path, np.arange(4, dtype=np.int64))
        view = attach_shared_array(first.handle)
        np.testing.assert_array_equal(view, np.arange(4))
        first.close()

        os.unlink(path)
        second = SharedArray.create_file(
            path, np.arange(8, dtype=np.float32))
        try:
            reopened = attach_shared_array(second.handle)
            assert reopened.shape == (8,)
            assert reopened.dtype == np.float32
            np.testing.assert_array_equal(
                reopened, np.arange(8, dtype=np.float32))
        finally:
            detach_shared_array(path)
            second.close()

    def test_genuine_mismatch_raises_without_poisoning_cache(self, tmp_path):
        """A handle that disagrees with the bytes on disk fails cleanly:
        no fd left open, no cache entry, and a good handle still works."""
        path = str(tmp_path / "store.npy")
        owner = SharedArray.create_file(path, np.arange(6, dtype=np.int64))
        try:
            bogus = SharedArrayHandle("", (17,), "<i8", path=path)
            before = attached_count()
            with pytest.raises(ValueError, match="holds"):
                attach_shared_array(bogus)
            assert attached_count() == before
            good = attach_shared_array(owner.handle)
            np.testing.assert_array_equal(good, np.arange(6))
        finally:
            detach_shared_array(path)
            owner.close()

    def test_same_handle_attach_is_cached(self, tmp_path):
        path = str(tmp_path / "store.npy")
        owner = SharedArray.create_file(path, np.ones(3))
        try:
            first = attach_shared_array(owner.handle)
            second = attach_shared_array(owner.handle)
            assert first is second
        finally:
            detach_shared_array(path)
            owner.close()


# ------------------------------------------------------------------ #
# Bugfix 2: close() really releases the map and its fd
# ------------------------------------------------------------------ #


class TestCloseReleasesResources:
    def test_owner_close_releases_fd(self, tmp_path):
        path = str(tmp_path / "owned.npy")
        shared = SharedArray.create_file(path, np.zeros(1024))
        assert fds_at(path) >= 1
        shared.close()
        assert fds_at(path) == 0
        assert os.path.exists(path)  # persistent unless delete_on_close

    def test_delete_on_close_removes_spill_file(self, tmp_path):
        path = str(tmp_path / "spill.npy")
        shared = SharedArray.create_file(path, np.zeros(16),
                                         delete_on_close=True)
        shared.close()
        assert fds_at(path) == 0
        assert not os.path.exists(path)

    def test_close_is_idempotent_in_mmap_mode(self, tmp_path):
        path = str(tmp_path / "twice.npy")
        shared = SharedArray.create_file(path, np.zeros(4))
        shared.close()
        shared.close()
        assert fds_at(path) == 0

    def test_detach_releases_fd(self, tmp_path):
        path = str(tmp_path / "attached.npy")
        owner = SharedArray.create_file(path, np.arange(32, dtype=np.int64))
        try:
            attach_shared_array(owner.handle)
            with_attach = fds_at(path)
            assert detach_shared_array(path)
            assert fds_at(path) == with_attach - 1
            assert not detach_shared_array(path)  # already gone
        finally:
            owner.close()

    def test_escaped_view_survives_close(self, tmp_path):
        """Views that escaped before close keep reading (GC fallback);
        close must not invalidate live memory out from under them."""
        path = str(tmp_path / "escaped.npy")
        owner = SharedArray.create_file(path, np.arange(5, dtype=np.int64))
        view = owner.array[1:4]
        owner.close()
        np.testing.assert_array_equal(view, [1, 2, 3])

    def test_release_pages_keeps_bytes_readable(self, tmp_path):
        path = str(tmp_path / "advised.npy")
        source = np.arange(4096, dtype=np.int64)
        shared = SharedArray.create_file(path, source)
        try:
            shared.release_pages()
            np.testing.assert_array_equal(shared.array, source)
            np.testing.assert_array_equal(
                np.lib.format.open_memmap(path, mode="r"), source)
        finally:
            shared.close()

    @pytest.mark.parametrize("mode", ("r", "r+", "c"))
    def test_module_release_pages_keeps_map_bytes(self, tmp_path, mode):
        """The module-level release the corpus spill shares: a synced
        map of any mode re-faults the same bytes after the release."""
        path = str(tmp_path / "released.npy")
        source = np.arange(3 * 4096, dtype=np.int64)
        np.save(path, source)
        mapped = np.lib.format.open_memmap(path, mode=mode)
        release_pages(mapped)
        release_pages(mapped[100:200])  # a view releases its base map
        np.testing.assert_array_equal(mapped, source)
        del mapped

    def test_module_release_pages_ignores_in_ram_arrays(self):
        array = np.arange(10, dtype=np.int64)
        release_pages(array)
        release_pages(np.empty(0, dtype=np.int64))
        np.testing.assert_array_equal(array, np.arange(10))


# ------------------------------------------------------------------ #
# Bugfix 3: create_file failure closes the map before unlinking
# ------------------------------------------------------------------ #


class TestCreateFileFaultInjection:
    def test_failure_removes_partial_file(self, tmp_path, monkeypatch):
        path = str(tmp_path / "partial.npy")

        def explode(self):
            raise OSError("injected flush failure")

        monkeypatch.setattr(np.memmap, "flush", explode)
        with pytest.raises(OSError, match="injected flush"):
            SharedArray.create_file(path, np.zeros(64))
        assert not os.path.exists(path)

    def test_failure_closes_map_before_unlink(self, tmp_path, monkeypatch):
        """The ordering half of the fix: at unlink time no descriptor may
        still reference the partial file (unlinking a mapped file leaks
        the mapping; some platforms refuse outright)."""
        path = str(tmp_path / "ordered.npy")
        real_unlink = os.unlink
        observed = {}

        def checking_unlink(target, *args, **kwargs):
            if os.fspath(target) == path:
                observed["open_fds"] = fds_at(path)
            return real_unlink(target, *args, **kwargs)

        def explode(self):
            raise OSError("injected flush failure")

        monkeypatch.setattr(os, "unlink", checking_unlink)
        monkeypatch.setattr(np.memmap, "flush", explode)
        with pytest.raises(OSError, match="injected flush"):
            SharedArray.create_file(path, np.zeros(64))
        assert observed["open_fds"] == 0
        assert not os.path.exists(path)


# ------------------------------------------------------------------ #
# SharedGroup spill lifecycle
# ------------------------------------------------------------------ #


class TestSharedGroupSpill:
    def test_mmap_group_round_trips_and_cleans_spill_dir(self, tmp_path):
        group = SharedGroup(backing="mmap", spill_dir=str(tmp_path))
        source = np.arange(100, dtype=np.float64)
        handle = group.share(source)
        assert handle.path is not None
        assert handle.path.startswith(str(tmp_path))
        view = attach_shared_array(handle)
        np.testing.assert_array_equal(view, source)
        detach_shared_array(handle.path)
        group.close()
        assert not os.path.exists(os.path.dirname(handle.path))
        # Only the empty spill root the test supplied remains.
        assert os.listdir(str(tmp_path)) == []

    def test_zero_size_share_falls_back_to_shm(self, tmp_path):
        group = SharedGroup(backing="mmap", spill_dir=str(tmp_path))
        try:
            handle = group.share(np.empty(0, dtype=np.int64))
            assert handle.path is None  # shm: empty files cannot be mapped
            view = attach_shared_array(handle)
            assert view.size == 0
        finally:
            detach_shared_array(handle.name)
            group.close()

    def test_empty_buffers_stay_shm_under_mmap_backing(self, tmp_path):
        group = SharedGroup(backing="mmap", spill_dir=str(tmp_path))
        try:
            buf = group.empty((4,), np.int64)
            assert buf.kind == "shm"  # workers write these
        finally:
            group.close()

    def test_shm_group_shares_no_files(self):
        group = SharedGroup(backing="shm")
        try:
            handle = group.share(np.arange(10))
            assert handle.path is None
        finally:
            detach_shared_array(handle.name)
            group.close()


# ------------------------------------------------------------------ #
# Knob resolution
# ------------------------------------------------------------------ #


class TestBackingKnobs:
    def test_resolve_backing(self):
        assert resolve_backing("shm") == "shm"
        assert resolve_backing("mmap") == "mmap"
        with pytest.raises(ValueError, match="backing"):
            resolve_backing("disk")
        with pytest.raises(ValueError, match="backing"):
            SharedGroup(backing="tmpfs")

    def test_env_defaults(self, monkeypatch, tmp_path):
        """The execution context reads the environment; the group it
        hands out spills under ``REPRO_SPILL_DIR``."""
        from repro.runtime.executor import ExecutionContext

        monkeypatch.delenv("REPRO_BACKING", raising=False)
        monkeypatch.delenv("REPRO_SPILL_DIR", raising=False)
        context = ExecutionContext()
        assert (context.backing, context.spill_dir) == ("shm", None)
        monkeypatch.setenv("REPRO_BACKING", "mmap")
        monkeypatch.setenv("REPRO_SPILL_DIR", str(tmp_path))
        group = ExecutionContext().shared_group()
        try:
            handle = group.share(np.arange(4))
            assert handle.path.startswith(str(tmp_path))
        finally:
            group.close()
