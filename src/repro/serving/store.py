"""Shared embedding store: open a trained matrix once, query it anywhere.

The batch pipeline ends with an ``(n, d)`` embedding matrix; the serving
layer starts with it.  :class:`EmbeddingStore` owns that matrix in one of
three backing modes and hands query workers zero-copy views:

* ``"shared"`` -- a POSIX shared-memory segment
  (:class:`~repro.utils.sharedmem.SharedArray`).  One copy in RAM total,
  however many query workers attach; the default for serving a matrix
  that is already in memory.
* ``"mmap"`` -- a file-backed ``.npy`` map (the new
  :meth:`SharedArray.create_file` / :meth:`SharedArray.from_file` mode).
  The matrix is opened straight from disk, pages are shared read-only
  through the OS cache, nothing is loaded up front -- matrices larger
  than RAM serve fine, which is also the first step of the out-of-core
  roadmap item.
* ``"memory"`` -- a plain in-process array; no cross-process handle, for
  single-process use and tests.

The store also owns the scorer's warm-up artifacts: row norms are
computed **once** in the parent and shipped through shared memory, so no
query worker pays the O(n d) pass.  ``handle`` is the picklable
descriptor the multi-worker front end passes to
:meth:`EmbeddingStore.attach`.

Mutable stores carry a **generation counter** so those warm-up caches
cannot go stale.  :meth:`update` rewrites the matrix in place (the
dynamic-update pipeline's re-embedding lands here), recomputes the norm
cache, and bumps ``generation`` -- a shared ``int64[1]`` slot that
attached workers see instantly.  Anything that derives state from the
matrix (the scorer's ``_safe_norms`` / gathered catalogues) keys its caches on ``generation`` and rebuilds on change;
:class:`~repro.serving.engine.QueryEngine` does exactly that on both the
in-process and the worker path, so a :class:`~repro.serving.scorer.
BatchTopKScorer` never scores post-update vectors against pre-update
norms.

Every publish (:meth:`from_array`, :meth:`open`, :meth:`update`,
:meth:`refresh_norms`) computes the norm cache with
:func:`~repro.serving.scorer.finite_row_norms`, so a NaN/inf row raises
``ValueError`` at the boundary -- before an in-place update writes
anything -- instead of surfacing later as an all-padding response.
"""

from __future__ import annotations

import os
from typing import NamedTuple, Optional

import numpy as np

from repro.serving.scorer import finite_row_norms
from repro.utils.sharedmem import (
    SharedArray,
    SharedArrayHandle,
    SharedGroup,
    attach_shared_array,
)

__all__ = ["EmbeddingStore", "StoreHandle"]

MODES = ("shared", "mmap", "memory")


class StoreHandle(NamedTuple):
    """Picklable descriptor of a store (embedding matrix + norm cache).

    ``meta`` names the shared ``int64[1]`` generation slot; it defaults
    to ``None`` so handles pickled before the slot existed still attach
    (such stores simply report generation 0 forever).
    """

    embeddings: SharedArrayHandle
    norms: SharedArrayHandle
    meta: Optional[SharedArrayHandle] = None


class EmbeddingStore:
    """Owner of a served embedding matrix and its norm cache.

    Build with :meth:`from_array` (serve a matrix you already hold),
    :meth:`open` (map a saved ``.npy`` / load a word2vec text file), or
    :meth:`attach` (worker side).  ``close`` releases the owner's
    segments exactly once; attached stores never unlink.
    """

    def __init__(self, embeddings: np.ndarray, norms: np.ndarray,
                 mode: str, group: Optional[SharedGroup],
                 handle: Optional[StoreHandle],
                 meta: Optional[np.ndarray] = None) -> None:
        self.embeddings = embeddings
        self.norms = norms
        self.mode = mode
        self._group = group
        self._handle = handle
        # Shared int64[1] generation slot; memory-mode stores (no
        # cross-process surface) fall back to a plain local counter.
        self._meta = meta
        self._local_generation = 0

    # ------------------------------------------------------------- #
    # Constructors
    # ------------------------------------------------------------- #

    @classmethod
    def from_array(cls, embeddings: np.ndarray, mode: str = "shared",
                   path: Optional[str] = None) -> "EmbeddingStore":
        """Serve ``embeddings`` from the chosen backing ``mode``.

        ``mode="mmap"`` writes the matrix to ``path`` (``.npy``) and maps
        it back, leaving a reusable on-disk artifact; ``"shared"`` copies
        it into a shared-memory segment; ``"memory"`` keeps the array
        as-is (no cross-process handle).
        """
        if mode not in MODES:
            raise ValueError(f"unknown store mode {mode!r}; options: "
                             f"{'/'.join(MODES)}")
        embeddings = np.asarray(embeddings)
        if embeddings.ndim != 2:
            raise ValueError(
                f"embeddings must be 2-D, got shape {embeddings.shape}")
        norms = finite_row_norms(embeddings, "embedding")
        if mode == "memory":
            return cls(embeddings, norms, mode, None, None)
        group = SharedGroup()
        try:
            if mode == "mmap":
                if path is None:
                    raise ValueError("mode='mmap' needs a path to map")
                emb_shared = group.adopt(
                    SharedArray.create_file(path, embeddings))
            else:
                emb_shared = group.adopt(SharedArray.create(embeddings))
            norms_shared = group.adopt(SharedArray.create(norms))
            meta_shared = group.adopt(
                SharedArray.create(np.zeros(1, dtype=np.int64)))
            handle = StoreHandle(emb_shared.handle, norms_shared.handle,
                                 meta_shared.handle)
            return cls(emb_shared.array, norms_shared.array, mode, group,
                       handle, meta=meta_shared.array)
        except BaseException:
            group.close()
            raise

    @classmethod
    def open(cls, path: str, mode: str = "mmap") -> "EmbeddingStore":
        """Open a saved matrix for serving.

        ``.npy`` files are memory-mapped zero-copy (or copied into shared
        memory under ``mode="shared"``); anything else is parsed as the
        word2vec text format of :func:`repro.graph.io.save_embeddings`
        and then backed per ``mode``.
        """
        if path.endswith(".npy"):
            if mode == "mmap":
                group = SharedGroup()
                try:
                    shared = group.adopt(SharedArray.from_file(path,
                                                               mode="r"))
                    norms_shared = group.adopt(SharedArray.create(
                        finite_row_norms(shared.array, "embedding")))
                    meta_shared = group.adopt(
                        SharedArray.create(np.zeros(1, dtype=np.int64)))
                    handle = StoreHandle(shared.handle,
                                         norms_shared.handle,
                                         meta_shared.handle)
                    return cls(shared.array, norms_shared.array, "mmap",
                               group, handle, meta=meta_shared.array)
                except BaseException:
                    group.close()
                    raise
            return cls.from_array(np.load(path), mode=mode, path=None)
        from repro.graph.io import load_embeddings

        return cls.from_array(load_embeddings(path), mode=mode,
                              path=path + ".npy" if mode == "mmap"
                              else None)

    @classmethod
    def attach(cls, handle: StoreHandle) -> "EmbeddingStore":
        """Worker-side view of a parent-owned store (never unlinks)."""
        meta = getattr(handle, "meta", None)
        return cls(attach_shared_array(handle.embeddings),
                   attach_shared_array(handle.norms),
                   "attached", None, handle,
                   meta=None if meta is None
                   else attach_shared_array(meta))

    # ------------------------------------------------------------- #
    # Introspection
    # ------------------------------------------------------------- #

    @property
    def num_nodes(self) -> int:
        return int(self.embeddings.shape[0])

    @property
    def dim(self) -> int:
        return int(self.embeddings.shape[1])

    @property
    def handle(self) -> StoreHandle:
        """Picklable descriptor for :meth:`attach` (shared/mmap only)."""
        if self._handle is None:
            raise ValueError(
                "a mode='memory' store has no cross-process handle; "
                "build it with mode='shared' or 'mmap'")
        return self._handle

    @property
    def generation(self) -> int:
        """Monotonic counter bumped by every :meth:`update` /
        :meth:`refresh_norms`.

        Shared across processes for shared/mmap stores (attached workers
        read the owner's bumps instantly); derived-cache owners compare
        it against the generation they built at and rebuild on change.
        Stores attached through a pre-generation handle report 0.
        """
        if self._meta is not None:
            return int(self._meta[0])
        return self._local_generation

    # ------------------------------------------------------------- #
    # Mutation (the dynamic-update seam)
    # ------------------------------------------------------------- #

    def _bump_generation(self) -> int:
        if self._meta is not None:
            self._meta[0] += 1
            return int(self._meta[0])
        self._local_generation += 1
        return self._local_generation

    def _publish_norms(self, fresh: np.ndarray) -> int:
        """Install the (already checked) norms of the current matrix and
        bump generation -- the last step of every mutation."""
        if self.mode == "memory":
            self.norms = fresh
        else:
            self.norms[...] = fresh
        return self._bump_generation()

    def refresh_norms(self) -> int:
        """Recompute the norm cache from the current matrix, bump
        generation.

        For callers that mutated ``embeddings`` directly (in-place
        writes through the shared view) instead of going through
        :meth:`update`.  Returns the new generation; raises
        ``ValueError`` (generation unchanged) if a row is not finite.
        """
        if self.mode == "attached":
            raise RuntimeError(
                "attached stores are read-only views; only the owning "
                "store may refresh norms")
        return self._publish_norms(
            finite_row_norms(self.embeddings, "embedding"))

    def update(self, new_embeddings: np.ndarray) -> int:
        """Replace the served matrix, refresh norms, bump generation.

        The write is **in place** for shared/mmap stores -- attached
        workers keep their zero-copy views and observe the new vectors
        plus the bumped generation without re-attaching -- so the new
        matrix must match the current shape and the backing must be
        writable (a store ``open``\\ ed read-only from ``.npy`` cannot be
        updated in place; rebuild it with :meth:`from_array`).
        Memory-mode stores simply adopt the new array, any shape.
        A matrix with a NaN/inf row raises ``ValueError`` and leaves the
        store as it was.  Returns the new generation.
        """
        if self.mode == "attached":
            raise RuntimeError(
                "attached stores are read-only views; updates go "
                "through the owning store")
        new_embeddings = np.asarray(new_embeddings)
        if new_embeddings.ndim != 2:
            raise ValueError(f"embeddings must be 2-D, got shape "
                             f"{new_embeddings.shape}")
        if self.mode == "memory":
            fresh = finite_row_norms(new_embeddings, "embedding")
            self.embeddings = new_embeddings
            return self._publish_norms(fresh)
        if new_embeddings.shape != self.embeddings.shape:
            raise ValueError(
                f"in-place update needs shape {self.embeddings.shape}, "
                f"got {new_embeddings.shape}; rebuild the store with "
                f"from_array for a resized matrix")
        if not self.embeddings.flags.writeable:
            raise ValueError(
                "store matrix is a read-only map; reopen writable or "
                "rebuild with from_array before updating")
        new_embeddings = new_embeddings.astype(self.embeddings.dtype,
                                               copy=False)
        # Norms of exactly the bytes about to be served, checked before
        # the first of them is written.
        fresh = finite_row_norms(new_embeddings, "embedding")
        self.embeddings[...] = new_embeddings
        if isinstance(self.embeddings, np.memmap):
            self.embeddings.flush()
        return self._publish_norms(fresh)

    def save(self, path: str) -> None:
        """Persist the matrix as ``.npy`` (the mmap-openable format)."""
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        np.save(path, np.asarray(self.embeddings))

    # ------------------------------------------------------------- #
    # Lifecycle
    # ------------------------------------------------------------- #

    def close(self) -> None:
        """Release owned segments/maps (idempotent; no-op when attached)."""
        if self._group is not None:
            group, self._group = self._group, None
            group.close()
        self.embeddings = None
        self.norms = None
        self._meta = None

    def __enter__(self) -> "EmbeddingStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
