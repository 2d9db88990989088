"""Shared-memory and file-backed ndarrays (the zero-copy substrate).

Every multi-process component of the reproduction moves bulk data the
same way: the owner materialises an array once -- in a POSIX shared
memory segment or a file-backed ``.npy`` mmap -- and ships only a tiny
picklable :class:`SharedArrayHandle`; workers attach and get a zero-copy
ndarray view.  The process executor shares CSR graphs, kernel tables and
replica matrices like this (:mod:`repro.runtime.executor`), and the
serving layer shares trained embedding matrices across query workers
(:mod:`repro.serving.store`).

Two backing modes, same handles, same views:

* **shm** (:meth:`SharedArray.empty` / :meth:`SharedArray.create`) --
  anonymous ``multiprocessing.shared_memory`` segments.  Strictly
  parent-owned: only the creating :class:`SharedArray` unlinks, exactly
  once, and attachers never register with the resource tracker (see
  :func:`_attach_untracked`).
* **mmap** (:meth:`SharedArray.create_file` / :meth:`SharedArray.
  from_file`) -- a standard ``.npy`` file opened as a memory map.  The
  file persists across processes *and runs* (nothing to unlink), pages
  are shared read-only by every attacher through the OS page cache, and
  matrices larger than RAM stay usable -- the first step of the
  out-of-core roadmap item.  Workers always attach read-only; writes are
  the owner's business.

The mode every executor uses is one knob: ``backing="shm"`` (default)
or ``"mmap"`` -- a field of :class:`repro.runtime.executor.
ExecutionContext`, which hands it (with the spill root) to
:class:`SharedGroup`.  Under ``mmap`` backing a group materialises its
``share``\\ d (read-only input) arrays as temp-spill ``.npy`` files and
``madvise``\\ s the owner's pages away, so the resident cost of sharing
a CSR graph, kernel table, or corpus block drops to near zero; mutable
worker-written buffers (``empty``) always stay shm.

Leak discipline: allocation is atomic-or-unlinked.  Every classmethod
constructor unlinks its segment (closing the mapping first, for files)
if anything raises between the raw allocation and the returned wrapper,
``close()`` is idempotent and really releases mmap file descriptors, and
a ``__del__`` backstop reclaims segments whose owner forgot (or crashed
past) the explicit close -- so a failure mid-``attach``/``create`` or a
dying serving worker cannot orphan ``/dev/shm`` entries
(``tests/test_serving_store.py`` counts segments around forced crashes,
``tests/test_sharedmem_lifecycle.py`` counts mmap fds the same way).
"""

from __future__ import annotations

import mmap
import os
import shutil
import sys
import tempfile
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

__all__ = [
    "BACKING_CHOICES",
    "SharedArray",
    "SharedArrayHandle",
    "SharedGroup",
    "attach_shared_array",
    "attached_count",
    "detach_shared_array",
    "release_pages",
    "resolve_backing",
]

#: Where the big shared structures live: ``/dev/shm`` segments or
#: file-backed ``.npy`` spill mmaps.
BACKING_CHOICES = ("shm", "mmap")


def resolve_backing(backing: str) -> str:
    """Validate a backing-mode knob value."""
    if backing not in BACKING_CHOICES:
        raise ValueError(
            f"backing must be one of {BACKING_CHOICES}, got {backing!r}")
    return backing


class SharedArrayHandle(NamedTuple):
    """Picklable descriptor of a shared ndarray.

    ``path is None`` names a shared-memory segment; otherwise the handle
    describes a file-backed ``.npy`` mmap (``name`` is unused then).
    """

    name: str
    shape: Tuple[int, ...]
    dtype: str
    path: Optional[str] = None


def _attach_untracked(name: str):
    """Open an existing segment without telling the resource tracker.

    CPython registers attached segments with the resource tracker too
    (bpo-39959); since forked workers share the parent's tracker and its
    per-name registry is a set, every attach/unregister pair from a worker
    would silently drop (or noisily double-drop) the *parent's* tracking
    entry.  Ownership here is strict -- only the creating
    :class:`SharedArray` unlinks -- so worker attaches suppress the
    registration instead.
    """
    from multiprocessing import resource_tracker, shared_memory

    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


#: Worker-side registry keeping attached segments (and their buffers) alive
#: for the life of the process.  Keyed by segment name or mmap path.
_ATTACHED: Dict[str, "object"] = {}

#: Stat signature of each cached mmap's backing file at attach time.
#: A path whose current signature differs was rewritten or replaced
#: since the cached map was opened -- the cache entry is stale even when
#: shape and dtype still agree with the handle.
_ATTACH_SIG: Dict[str, Optional[Tuple[int, int, int]]] = {}


def _stat_signature(path: str) -> Optional[Tuple[int, int, int]]:
    """``(st_ino, st_size, st_mtime_ns)`` of ``path``, None if unstatable.

    Inode catches unlink-and-recreate (the old map silently keeps serving
    the dead file's pages); size and mtime catch in-place rewrites of the
    same inode.
    """
    try:
        st = os.stat(path)
    except OSError:
        return None
    return (st.st_ino, st.st_size, st.st_mtime_ns)


def _close_memmap(mm: Optional[np.memmap], force: bool = False) -> None:
    """Close a memmap's raw ``mmap.mmap`` (releasing its fd) if safe.

    numpy does **not** keep a buffer export on the underlying mmap
    object, so ``mmap.close()`` always succeeds -- and any ndarray still
    pointing into the mapping would read unmapped memory afterwards
    (a segfault, not an exception).  The caller hands over its *only*
    reference; if anything else still references the memmap (escaped
    views hold it via ``.base``), the close is skipped and reclamation
    falls back to GC: when the last view dies, the memmap deallocates,
    the raw map loses its final reference, and the fd closes.

    Contract: the caller holds **exactly one** reference (a local it
    will drop right after this returns) and passes it here.  Expected
    count is therefore 3: caller's local + the parameter binding +
    ``getrefcount``'s own argument; anything above that is an escaped
    reference and vetoes the close.  ``force=True`` skips the veto --
    for failure paths where no view can have escaped but the in-flight
    exception's traceback frames still reference the memmap (a raising
    ``flush`` holds it as ``self``).
    """
    if mm is None:
        return
    if not force and sys.getrefcount(mm) > 3:
        return
    underlying = getattr(mm, "_mmap", None)
    del mm
    if underlying is not None:
        try:
            underlying.close()
        except BufferError:  # pragma: no cover - exported elsewhere
            pass


def release_pages(array: np.ndarray) -> None:
    """``madvise(MADV_DONTNEED)`` a memmap's pages out of the resident set.

    The bytes stay in the file (and the OS page cache) and re-fault on
    demand; flush first if the map is dirty.  No-op for in-RAM arrays and
    on platforms without ``madvise``.
    """
    underlying = getattr(array, "_mmap", None)
    if underlying is not None and hasattr(underlying, "madvise") and \
            hasattr(mmap, "MADV_DONTNEED"):
        underlying.madvise(mmap.MADV_DONTNEED)


def _handle_matches(mm: np.ndarray, handle: SharedArrayHandle) -> bool:
    return tuple(mm.shape) == tuple(handle.shape) and \
        mm.dtype == np.dtype(handle.dtype)


def attach_shared_array(handle: SharedArrayHandle) -> np.ndarray:
    """Attach to a shared array and view it as an ndarray (worker side).

    Shared-memory handles keep the underlying segment open in a
    process-wide registry, so the returned array stays valid for the
    attaching process's lifetime; attaching the same handle twice reuses
    the mapping.  File-backed handles are opened as **read-only** memory
    maps -- attachers share pages through the OS cache and cannot
    corrupt the owner's data.  A cached mmap is detached and reopened
    when the handle no longer matches its shape/dtype **or** when the
    backing file's stat signature (inode, size, mtime) changed since the
    map was opened -- the owner rewrote or replaced the file (a new
    spill generation, an updated store), and shape/dtype alone cannot
    see a same-shape rewrite, so a stale map would keep serving the old
    bytes forever.
    """
    if handle.path is not None:
        sig = _stat_signature(handle.path)
        mm = _ATTACHED.get(handle.path)
        if mm is not None and (not _handle_matches(mm, handle)
                               or sig != _ATTACH_SIG.get(handle.path)):
            detach_shared_array(handle.path)
            mm = None
        if mm is None:
            # Signature taken *before* the open: a rewrite racing the
            # attach leaves a too-old signature behind, so the next
            # attach re-detects staleness and reopens -- the safe side.
            mm = np.lib.format.open_memmap(handle.path, mode="r")
            if not _handle_matches(mm, handle):
                # Genuine mismatch: the file on disk disagrees with the
                # handle.  Close the fresh map before raising -- a failed
                # attach must not leak an fd or poison the cache.
                shape, dtype = tuple(mm.shape), mm.dtype.str
                _close_memmap(mm)
                del mm
                raise ValueError(
                    f"mmap file {handle.path!r} holds "
                    f"{dtype}{shape}, handle expects "
                    f"{handle.dtype}{tuple(handle.shape)}")
            _ATTACHED[handle.path] = mm
            _ATTACH_SIG[handle.path] = sig
        return mm
    shm = _ATTACHED.get(handle.name)
    if shm is None:
        shm = _attach_untracked(handle.name)
        _ATTACHED[handle.name] = shm
    return np.ndarray(handle.shape, dtype=np.dtype(handle.dtype),
                      buffer=shm.buf)


def detach_shared_array(key: str) -> bool:
    """Drop one cached attach (segment name or mmap path) from the registry.

    Closes the cached mapping -- for mmaps the underlying map *and its
    file descriptor* -- so long-lived processes that reopen stores do
    not accumulate mappings, and tests can assert none dangle.  Returns
    False when nothing was attached under ``key``.  A detached mmap that
    callers still hold views into is left for GC instead of closed (a
    closed map would read as unmapped memory under them); the registry
    entry is dropped either way.
    """
    obj = _ATTACHED.pop(key, None)
    _ATTACH_SIG.pop(key, None)
    if obj is None:
        return False
    if isinstance(obj, np.memmap):
        _close_memmap(obj)
        del obj
    else:
        obj.close()
    return True


def attached_count() -> int:
    """Number of live entries in the attach registry (test observability)."""
    return len(_ATTACHED)


class SharedArray:
    """An owner-held shared ndarray (shm segment or ``.npy`` mmap).

    ``empty``/``create`` allocate a shared-memory segment;
    ``create_file``/``from_file`` write/open a file-backed mmap.
    ``handle`` is the picklable descriptor workers pass to
    :func:`attach_shared_array`; ``close`` releases the mapping and (for
    shm segments) unlinks it -- owner's responsibility, exactly once,
    with a ``__del__`` backstop so failure paths cannot leak segments.
    """

    def __init__(self, shm, handle: SharedArrayHandle,
                 mmap: Optional[np.memmap] = None,
                 delete_on_close: bool = False) -> None:
        self._shm = shm
        self._mmap = mmap
        self._delete_on_close = delete_on_close
        self.handle = handle
        if mmap is not None:
            self.array: Optional[np.ndarray] = mmap
        else:
            self.array = self._wrap_buffer(handle.shape, handle.dtype,
                                           shm.buf)

    @staticmethod
    def _wrap_buffer(shape, dtype, buf) -> np.ndarray:
        """View ``buf`` as an ndarray (separate for fault injection)."""
        return np.ndarray(shape, dtype=np.dtype(dtype), buffer=buf)

    @property
    def kind(self) -> str:
        """``"shm"`` or ``"mmap"``."""
        return "mmap" if self.handle.path is not None else "shm"

    # ------------------------------------------------------------- #
    # Shared-memory mode
    # ------------------------------------------------------------- #

    @classmethod
    def empty(cls, shape: Tuple[int, ...], dtype) -> "SharedArray":
        from multiprocessing import shared_memory

        dt = np.dtype(dtype)
        size = max(1, int(np.prod(shape)) * dt.itemsize)
        shm = shared_memory.SharedMemory(create=True, size=size)
        try:
            return cls(shm, SharedArrayHandle(shm.name, tuple(shape),
                                              dt.str))
        except BaseException:
            # Anything failing between allocation and the returned
            # wrapper (ndarray construction, handle build) must not
            # orphan the segment.
            shm.close()
            shm.unlink()
            raise

    @classmethod
    def create(cls, source: np.ndarray) -> "SharedArray":
        """Allocate a segment holding a copy of ``source``."""
        source = np.asarray(source)
        out = cls.empty(source.shape, source.dtype)
        try:
            out.array[...] = source
        except BaseException:
            out.close()
            raise
        return out

    # ------------------------------------------------------------- #
    # File-backed mmap mode
    # ------------------------------------------------------------- #

    @classmethod
    def create_file(cls, path: str, source: np.ndarray,
                    delete_on_close: bool = False) -> "SharedArray":
        """Write ``source`` to ``path`` as ``.npy`` and map it back.

        The returned array is the (read-write) mmap, already flushed, so
        the bytes on disk equal ``source`` before any worker attaches.
        A failure mid-write closes the mapping and removes the partial
        file -- in that order, because unlinking a file that is still
        mapped leaks the mapping and fails outright on platforms that
        refuse to unlink open files.  ``delete_on_close=True`` marks the
        file a temp spill artifact that ``close`` removes.
        """
        source = np.asarray(source)
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        mm = None
        try:
            mm = np.lib.format.open_memmap(
                path, mode="w+", dtype=source.dtype, shape=source.shape)
            mm[...] = source
            mm.flush()
        except BaseException:
            if mm is not None:
                # Close before unlinking: removing a still-mapped file
                # leaks the mapping (and fails outright on platforms
                # that refuse to unlink open files).  Forced -- nothing
                # has seen this array yet, only the exception's own
                # traceback frames still reference it.
                _close_memmap(mm, force=True)
                mm = None
            if os.path.exists(path):
                os.unlink(path)
            raise
        handle = SharedArrayHandle("", tuple(source.shape),
                                   source.dtype.str, path=os.fspath(path))
        return cls(None, handle, mmap=mm, delete_on_close=delete_on_close)

    @classmethod
    def from_file(cls, path: str, mode: str = "r") -> "SharedArray":
        """Map an existing ``.npy`` file (``mode="r"`` or ``"r+"``)."""
        if mode not in ("r", "r+"):
            raise ValueError(f"mode must be 'r' or 'r+', got {mode!r}")
        mm = np.lib.format.open_memmap(path, mode=mode)
        handle = SharedArrayHandle("", tuple(mm.shape), mm.dtype.str,
                                   path=os.fspath(path))
        return cls(None, handle, mmap=mm)

    # ------------------------------------------------------------- #
    # Lifecycle
    # ------------------------------------------------------------- #

    def flush(self) -> None:
        """Flush a writable mmap's dirty pages to disk (no-op for shm)."""
        if self._mmap is not None and getattr(self._mmap, "mode", "r") \
                != "r":
            self._mmap.flush()

    def release_pages(self) -> None:
        """Drop the owner's resident pages of a file-backed array.

        Flushes dirty pages, then ``madvise(MADV_DONTNEED)``\\ s the
        mapping: the data stays in the file (and the OS page cache) and
        every attacher re-faults it on demand, but the owner's RSS no
        longer charges for bytes it only wrote once to share.  No-op for
        shm arrays and on platforms without ``madvise``.
        """
        if self._mmap is None:
            return
        self.flush()
        release_pages(self._mmap)

    def close(self) -> None:
        """Release the mapping; unlink shm segments (idempotent).

        File-backed arrays really close the underlying map and its file
        descriptor (escaped views fall back to GC), so long-lived
        processes that cycle through stores do not accumulate mappings.
        The file itself is kept -- it is the persistent artifact other
        processes (and future runs) open -- unless the array was created
        with ``delete_on_close=True`` (temp spill files).
        """
        if self._mmap is not None:
            self.flush()
            mm = self._mmap
            self._mmap = None
            self.array = None
            _close_memmap(mm)
            del mm
            if self._delete_on_close and self.handle.path is not None:
                try:
                    os.unlink(self.handle.path)
                except FileNotFoundError:  # pragma: no cover - already gone
                    pass
            return
        if self._shm is None:
            return
        self.array = None
        try:
            self._shm.close()
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass
        self._shm = None

    def __del__(self) -> None:  # leak backstop, not the contract
        try:
            self.close()
        except Exception:  # pragma: no cover - interpreter teardown
            pass

    def __enter__(self) -> "SharedArray":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SharedGroup:
    """Owner-side bundle of shared arrays with one-shot cleanup.

    ``backing`` routes the **read-only inputs** (``share``): under
    ``"shm"`` they become ``/dev/shm`` segments, under ``"mmap"`` they
    are spilled as ``.npy`` files into a private temp directory under
    ``spill_dir`` (default: the system temp dir)
    and the owner's pages are released immediately -- workers attach
    read-only through the page cache.  Mutable worker-*written* buffers
    (``empty``) always stay shm: they are small (round slots, replica
    matrices) and need write access from attachers.

    ``close`` releases every member even if one of them fails, removes
    the spill directory, then re-raises the first error -- a partial
    cleanup may not strand the remaining segments or files.
    """

    def __init__(self, backing: str = "shm",
                 spill_dir: Optional[str] = None) -> None:
        self.backing = resolve_backing(backing)
        self._spill_root = spill_dir
        self._spill_dir: Optional[str] = None
        self._counter = 0
        self._arrays: List[SharedArray] = []

    def _next_spill_path(self) -> str:
        if self._spill_dir is None:
            root = self._spill_root or tempfile.gettempdir()
            os.makedirs(root, exist_ok=True)
            self._spill_dir = tempfile.mkdtemp(prefix="repro-spill-",
                                               dir=root)
        self._counter += 1
        return os.path.join(self._spill_dir, f"a{self._counter:04d}.npy")

    def share(self, source: np.ndarray) -> SharedArrayHandle:
        source = np.asarray(source)
        if self.backing == "mmap" and source.size:
            shared = SharedArray.create_file(self._next_spill_path(),
                                             source, delete_on_close=True)
            # The owner only wrote this copy to share it; drop its pages.
            shared.release_pages()
        else:
            # Zero-size arrays cannot be mmapped; shm pads to one byte.
            shared = SharedArray.create(source)
        self._arrays.append(shared)
        return shared.handle

    def empty(self, shape, dtype) -> SharedArray:
        shared = SharedArray.empty(shape, dtype)
        self._arrays.append(shared)
        return shared

    def adopt(self, shared: SharedArray) -> SharedArray:
        """Take ownership of an externally-built array's cleanup."""
        self._arrays.append(shared)
        return shared

    def close(self) -> None:
        arrays, self._arrays = self._arrays, []
        first_error: Optional[BaseException] = None
        for shared in arrays:
            try:
                shared.close()
            except BaseException as exc:  # pragma: no cover - defensive
                if first_error is None:
                    first_error = exc
        if self._spill_dir is not None:
            shutil.rmtree(self._spill_dir, ignore_errors=True)
            self._spill_dir = None
        if first_error is not None:  # pragma: no cover - defensive
            raise first_error
