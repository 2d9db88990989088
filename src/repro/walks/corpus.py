"""Corpus: the set of generated walks fed to the Skip-Gram learner.

Besides holding the walks, the corpus tracks per-node occurrence counts --
the paper reuses these counts three times: for the walk-count termination
rule (Eq. 6/7), for ordering DSGL's global matrices by frequency
(Improvement-I), and for the hotness blocks of the synchronisation scheme
(Improvement-III).

Flat layout
-----------
Walks are stored CSR-style: one contiguous ``tokens`` int64 block plus a
monotone ``offsets`` array, with walk ``i`` occupying
``tokens[offsets[i]:offsets[i + 1]]``.  The list-based API is preserved as
views -- ``corpus.walks[i]`` and iteration hand out zero-copy slices of
the token block -- which is what makes the corpus cheap to hand between
the three pipeline phases: training plans ``(machine, lo, hi, lr)``
slices over per-machine shard index arrays and :func:`shard_walks`
resolves a slice into walk views -- in the parent for serial execution,
in the workers (over one shared copy of ``tokens``/``offsets``) for the
process executor.

Both storage arrays grow by amortised doubling, so ``add_walk`` stays
O(len(walk)) and ``add_walks`` does one reserve + one bounds check + one
``bincount`` per batch.

Out-of-core spill
-----------------
:meth:`Corpus.spill_to` moves ``tokens``/``offsets`` onto file-backed
``.npy`` mmaps (the walk engine calls it under ``backing="mmap"``).  A
spilled corpus keeps the exact same API and byte layout, but appends go
through a bounded in-RAM staging buffer that every :meth:`add_walks`
round flushes to disk (dropping the flushed pages from the resident
set), so sampling a corpus of any size holds O(round + staging) bytes in
RAM instead of O(corpus).  :meth:`storage_bytes` reports the
resident-vs-mapped split; :meth:`spill_handles` lets the process trainer
share the blocks zero-copy straight from the spill files.

Persistence: :meth:`save` writes the flat arrays as ``.npz`` and
:meth:`load` reads them back (anything else is refused); empty corpora
and zero-length walks round-trip exactly.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.utils.rng import stream_uniforms
from repro.utils.stats import kl_divergence

#: Zip local-file-header magic -- how :meth:`Corpus.load` detects ``.npz``.
_NPZ_MAGIC = b"PK\x03\x04"

#: Elements copied per step when a spilled block is rewritten onto a
#: larger file -- with the per-chunk page release below this bounds the
#: resident cost of growth to one chunk (8 MB), not O(corpus).
_SPILL_COPY_CHUNK = 1 << 20

#: Default staging bound (tokens) of a spilled corpus: appends accumulate
#: in RAM up to this many tokens between flushes.
_SPILL_STAGE_TOKENS = 1 << 20


def _concat_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(start, start + length)`` ranges, vectorized.

    All-ones deltas with each range head patched to jump from the end of
    the previous range to its own start, then one cumsum.  Zero-length
    ranges are filtered first -- they would alias the head writes.
    """
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    nonzero = lengths > 0
    starts, lengths = starts[nonzero], lengths[nonzero]
    if starts.size == 0:
        return np.empty(0, dtype=np.int64)
    total = int(lengths.sum())
    deltas = np.ones(total, dtype=np.int64)
    heads = np.zeros(starts.size, dtype=np.int64)
    np.cumsum(lengths[:-1], out=heads[1:])
    deltas[heads] = starts
    deltas[heads[1:]] -= starts[:-1] + lengths[:-1] - 1
    return np.cumsum(deltas)


def _advise_dontneed(mm: np.ndarray) -> None:
    """Drop a memmap's resident pages (data stays in file + page cache)."""
    import mmap as _mmap_module

    underlying = getattr(mm, "_mmap", None)
    if underlying is not None and hasattr(underlying, "madvise") and \
            hasattr(_mmap_module, "MADV_DONTNEED"):
        underlying.madvise(_mmap_module.MADV_DONTNEED)


class _WalkSequence(Sequence):
    """Read-only list view over a corpus's walks (zero-copy slices)."""

    __slots__ = ("_corpus",)

    def __init__(self, corpus: "Corpus") -> None:
        self._corpus = corpus

    def __len__(self) -> int:
        return self._corpus.num_walks

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._corpus.walk(i)
                    for i in range(*index.indices(len(self)))]
        return self._corpus.walk(index)

    def __iter__(self) -> Iterator[np.ndarray]:
        corpus = self._corpus
        offsets = corpus.offsets
        tokens = corpus.tokens
        for i in range(corpus.num_walks):
            yield tokens[offsets[i]:offsets[i + 1]]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{len(self)} walks of {self._corpus!r}>"


class Corpus:
    """Walks over a fixed node universe of size ``num_nodes``."""

    def __init__(self, num_nodes: int) -> None:
        self.num_nodes = int(num_nodes)
        self._tokens = np.empty(0, dtype=np.int64)
        self._offsets = np.zeros(1, dtype=np.int64)
        self._n_tokens = 0
        self._n_walks = 0
        self._occurrences = np.zeros(self.num_nodes, dtype=np.int64)
        # Out-of-core spill state (see spill_to); counters above always
        # include staged-but-unflushed appends.
        self._spill_dir: Optional[str] = None
        self._stage: List[Tuple[np.ndarray, np.ndarray]] = []
        self._stage_tokens = 0
        self._stage_limit = _SPILL_STAGE_TOKENS

    # ------------------------------------------------------------------ #
    # Building
    # ------------------------------------------------------------------ #

    def _reserve(self, extra_tokens: int, extra_walks: int) -> None:
        """Grow the flat arrays (amortised doubling) for a pending append."""
        need = self._n_tokens + extra_tokens
        if need > self._tokens.size:
            grown = np.empty(max(need, 2 * self._tokens.size, 1024),
                             dtype=np.int64)
            grown[:self._n_tokens] = self._tokens[:self._n_tokens]
            self._tokens = grown
        need = self._n_walks + extra_walks + 1
        if need > self._offsets.size:
            grown = np.empty(max(need, 2 * self._offsets.size, 256),
                             dtype=np.int64)
            grown[:self._n_walks + 1] = self._offsets[:self._n_walks + 1]
            self._offsets = grown

    def _count_occurrences(self, flat: np.ndarray) -> None:
        if flat.size:
            if flat.size * 4 >= self.num_nodes:
                # Batch appends: one bincount over the whole block.
                self._occurrences += np.bincount(flat,
                                                 minlength=self.num_nodes)
            else:
                # Small appends (add_walk from the loop engines):
                # O(len(walk)), not O(num_nodes) -- integer counts, so
                # both paths land on identical state.
                np.add.at(self._occurrences, flat, 1)

    def _append_flat(self, flat: np.ndarray, lengths: np.ndarray) -> None:
        """Append pre-validated walks given as a flat block + lengths.

        The internal fast path shared by ``add_walk``/``add_walks``/
        ``merge``/``load``; unlike the public builders it accepts
        zero-length walks (needed for lossless save/load round trips).
        A spilled corpus stages the append in RAM (counters advance
        immediately; the flat views materialise at the next flush).
        """
        if self._spill_dir is not None:
            flat = np.array(flat, dtype=np.int64, copy=True).ravel()
            lengths = np.array(lengths, dtype=np.int64, copy=True).ravel()
            self._stage.append((flat, lengths))
            self._stage_tokens += int(flat.size)
            self._n_tokens += int(flat.size)
            self._n_walks += int(lengths.size)
            self._count_occurrences(flat)
            if self._stage_tokens >= self._stage_limit:
                self._flush_staging()
            return
        self._reserve(int(flat.size), int(lengths.size))
        start = self._n_tokens
        self._tokens[start:start + flat.size] = flat
        base = self._offsets[self._n_walks]
        np.cumsum(lengths,
                  out=self._offsets[self._n_walks + 1:
                                    self._n_walks + 1 + lengths.size])
        self._offsets[self._n_walks + 1:
                      self._n_walks + 1 + lengths.size] += base
        self._n_tokens += int(flat.size)
        self._n_walks += int(lengths.size)
        self._count_occurrences(flat)

    def add_walk(self, walk: Sequence[int]) -> None:
        """Append one walk and update occurrence counts."""
        arr = np.asarray(walk, dtype=np.int64)
        if arr.size == 0:
            return
        if arr.min() < 0 or arr.max() >= self.num_nodes:
            raise ValueError("walk contains node ids outside the universe")
        self._append_flat(arr, np.array([arr.size], dtype=np.int64))

    def add_walks(self, paths: np.ndarray, lengths: np.ndarray) -> None:
        """Append a batch of walks from a padded path matrix.

        ``paths`` is ``int64[n, cap]`` with walk ``i`` occupying
        ``paths[i, :lengths[i]]`` (the layout both the lock-step batch
        engine and the process executor's shared output buffers use).
        Equivalent to ``add_walk(paths[i, :lengths[i]])`` for every row in
        order -- same walks, same occurrence counts -- but with one bounds
        check and one ``bincount`` for the whole batch; the tokens are
        compacted straight into the corpus's flat block, so the corpus
        never aliases the (reused) input buffer.
        """
        lengths = np.asarray(lengths, dtype=np.int64)
        if lengths.size == 0:
            return
        if lengths.min() <= 0:
            raise ValueError("every walk must hold at least one token")
        if lengths.max() > paths.shape[1]:
            # Without this guard the offsets would advance by the claimed
            # lengths while only the truncated rows get written, silently
            # breaking the offsets[-1] == tokens.size invariant.
            raise ValueError(
                f"walk length {int(lengths.max())} exceeds the path "
                f"matrix width {paths.shape[1]}"
            )
        flat = paths[np.arange(paths.shape[1]) < lengths[:, None]]
        if flat.min() < 0 or flat.max() >= self.num_nodes:
            raise ValueError("walk contains node ids outside the universe")
        self._append_flat(flat, lengths)
        if self._spill_dir is not None:
            # Round boundary: push the round to disk and drop its pages,
            # so resident memory stays O(round) while sampling.
            self._flush_staging()

    def __getstate__(self):
        # A spilled corpus materialises its blocks: the receiver has no
        # claim on our temp files' lifetime, so the pickle must be
        # self-contained.
        if self._stage:
            self._flush_staging()
        state = self.__dict__.copy()
        if self._spill_dir is not None:
            state["_tokens"] = np.array(self._tokens[:self._n_tokens])
            state["_offsets"] = np.array(self._offsets[:self._n_walks + 1])
            state["_spill_dir"] = None
            state["_stage"] = []
            state["_stage_tokens"] = 0
        return state

    def merge(self, other: "Corpus") -> None:
        """Fold another corpus (e.g. another machine's walks) into this one."""
        if other.num_nodes != self.num_nodes:
            raise ValueError("cannot merge corpora over different universes")
        self._append_flat(other.tokens, other.walk_lengths)

    @classmethod
    def from_flat(cls, num_nodes: int, tokens: np.ndarray,
                  offsets: np.ndarray,
                  occurrences: Optional[np.ndarray] = None) -> "Corpus":
        """Build a corpus directly from a flat token block + offsets.

        ``offsets`` must be monotone non-decreasing with ``offsets[0] == 0``
        and ``offsets[-1] == tokens.size`` (every token belongs to exactly
        one walk); zero-length walks (equal consecutive offsets) are
        allowed.  The arrays are copied, so the corpus stays growable.

        ``occurrences`` overrides the per-node counters derived from the
        tokens: the dynamic-update path trains a stale *sub*-corpus under
        the full corpus's frequency statistics, so the vocabulary order,
        negative table and subsampling thresholds stay those of the whole
        walk set (see :mod:`repro.dynamic.update`).
        """
        tokens = np.asarray(tokens, dtype=np.int64).ravel()
        offsets = np.asarray(offsets, dtype=np.int64).ravel()
        if offsets.size == 0 or offsets[0] != 0:
            raise ValueError("offsets must start at 0")
        if offsets[-1] != tokens.size:
            raise ValueError(
                f"offsets end at {int(offsets[-1])} but the token block "
                f"holds {tokens.size} tokens"
            )
        lengths = np.diff(offsets)
        if lengths.size and lengths.min() < 0:
            raise ValueError("offsets must be monotone non-decreasing")
        if tokens.size and (tokens.min() < 0 or tokens.max() >= num_nodes):
            raise ValueError("walk contains node ids outside the universe")
        corpus = cls(num_nodes)
        corpus._append_flat(tokens, lengths)
        if occurrences is not None:
            occurrences = np.asarray(occurrences, dtype=np.int64)
            if occurrences.shape != (num_nodes,):
                raise ValueError(
                    f"occurrences shape {occurrences.shape} does not match "
                    f"num_nodes={num_nodes}")
            corpus._occurrences = occurrences.copy()
        return corpus

    # ------------------------------------------------------------------ #
    # In-place mutation (dynamic updates)
    # ------------------------------------------------------------------ #

    def expand_universe(self, num_nodes: int) -> None:
        """Grow the node universe (edge streams may mint new node ids).

        Occurrence counters extend with zeros; existing walks, offsets
        and statistics are untouched.  Shrinking is refused -- walks may
        reference any id below the current bound.
        """
        num_nodes = int(num_nodes)
        if num_nodes < self.num_nodes:
            raise ValueError(
                f"cannot shrink universe from {self.num_nodes} to "
                f"{num_nodes}")
        if num_nodes == self.num_nodes:
            return
        grown = np.zeros(num_nodes, dtype=np.int64)
        grown[:self.num_nodes] = self._occurrences
        self._occurrences = grown
        self.num_nodes = num_nodes

    def replace_walks(self, indices: np.ndarray, paths: np.ndarray,
                      lengths: np.ndarray) -> None:
        """Splice replacement walks over existing walk ids, in place.

        ``indices`` names the walks to replace; ``paths``/``lengths`` is
        the padded-matrix batch format of :meth:`add_walks` (row ``j``
        replaces walk ``indices[j]``).  The walk *count* never changes.
        Occurrence counters are patched incrementally (subtract the old
        tokens, add the new ones), never recounted.

        Equal-length replacements write straight into the flat block;
        otherwise the block is rebuilt with one bulk copy per unchanged
        run between replaced walks (``<= 2k + 1`` copies for ``k``
        replacements).  A spilled corpus rewrites its files through a
        sibling + atomic-replace, chunked, exactly like
        :meth:`shrink_to_fit` -- existing zero-copy views and shared
        handles keep reading the superseded inode, so a consumer that
        must observe the patch re-reads ``tokens``/``offsets`` (the
        update executor re-shares the corpus after patching).
        """
        indices = np.asarray(indices, dtype=np.int64).ravel()
        lengths = np.asarray(lengths, dtype=np.int64).ravel()
        paths = np.asarray(paths)
        if indices.size != lengths.size or len(paths) != indices.size:
            raise ValueError("indices, paths and lengths must be parallel")
        if indices.size == 0:
            return
        order = np.argsort(indices, kind="stable")
        indices, lengths, paths = indices[order], lengths[order], paths[order]
        if indices[0] < 0 or indices[-1] >= self._n_walks:
            raise ValueError("walk index out of range")
        if indices.size > 1 and (np.diff(indices) == 0).any():
            raise ValueError("duplicate walk indices")
        if lengths.min() <= 0:
            raise ValueError("every walk must hold at least one token")
        if lengths.max() > paths.shape[1]:
            raise ValueError(
                f"walk length {int(lengths.max())} exceeds the path "
                f"matrix width {paths.shape[1]}")
        new_flat = paths[np.arange(paths.shape[1]) < lengths[:, None]]
        new_flat = np.ascontiguousarray(new_flat, dtype=np.int64)
        if new_flat.size and (new_flat.min() < 0
                              or new_flat.max() >= self.num_nodes):
            raise ValueError("walk contains node ids outside the universe")

        if self._stage:
            self._flush_staging()
        offsets = self._offsets  # full backing array; prefix is logical
        old_lengths = np.diff(offsets[:self._n_walks + 1])

        # Incremental occurrence patch: -old tokens, +new tokens.
        old_pos = _concat_ranges(offsets[indices], old_lengths[indices])
        old_flat = np.asarray(self._tokens[old_pos], dtype=np.int64)
        self._occurrences -= np.bincount(old_flat, minlength=self.num_nodes)
        self._occurrences += np.bincount(new_flat, minlength=self.num_nodes)

        if np.array_equal(lengths, old_lengths[indices]):
            # Same shape: overwrite the rows where they sit.
            self._tokens[old_pos] = new_flat
            if self._spill_dir is not None:
                self._tokens.flush()
                _advise_dontneed(self._tokens)
        else:
            self._splice_rebuild(indices, lengths, new_flat, old_lengths)

    def _splice_rebuild(self, indices: np.ndarray, lengths: np.ndarray,
                        new_flat: np.ndarray,
                        old_lengths: np.ndarray) -> None:
        """Rebuild ``tokens``/``offsets`` around replaced walks.

        Unchanged runs between replaced walks are copied in bulk (chunked
        with page drops when spilled); replacement rows come from
        ``new_flat``.  The arrays come out exactly sized (no doubling
        headroom), like :meth:`shrink_to_fit` leaves them.
        """
        old_offsets = self._offsets
        new_lengths = old_lengths.copy()
        new_lengths[indices] = lengths
        new_offsets = np.zeros(self._n_walks + 1, dtype=np.int64)
        np.cumsum(new_lengths, out=new_offsets[1:])
        new_total = int(new_offsets[-1])

        spilled = self._spill_dir is not None
        if spilled:
            tmp = os.path.join(self._spill_dir, "tokens.npy.next")
            new_tokens = np.lib.format.open_memmap(
                tmp, mode="w+", dtype=np.int64, shape=(max(new_total, 1),))
        else:
            new_tokens = np.empty(new_total, dtype=np.int64)

        def copy_run(dst_start: int, src_start: int, count: int) -> None:
            for off in range(0, count, _SPILL_COPY_CHUNK):
                stop = min(count, off + _SPILL_COPY_CHUNK)
                new_tokens[dst_start + off:dst_start + stop] = \
                    self._tokens[src_start + off:src_start + stop]
                if spilled:
                    new_tokens.flush()
                    _advise_dontneed(new_tokens)
                    _advise_dontneed(self._tokens)

        heads = np.zeros(indices.size, dtype=np.int64)
        np.cumsum(lengths[:-1], out=heads[1:])
        prev = 0  # first walk id of the next unchanged run
        for j, walk_id in enumerate(indices.tolist()):
            if prev < walk_id:
                copy_run(int(new_offsets[prev]), int(old_offsets[prev]),
                         int(old_offsets[walk_id] - old_offsets[prev]))
            row = slice(int(new_offsets[walk_id]),
                        int(new_offsets[walk_id + 1]))
            new_tokens[row] = new_flat[heads[j]:heads[j] + lengths[j]]
            prev = walk_id + 1
        if prev < self._n_walks:
            copy_run(int(new_offsets[prev]), int(old_offsets[prev]),
                     int(old_offsets[self._n_walks] - old_offsets[prev]))

        if spilled:
            new_tokens.flush()
            _advise_dontneed(new_tokens)
            del new_tokens
            path = os.path.join(self._spill_dir, "tokens.npy")
            self._tokens = None
            os.replace(tmp, path)
            self._tokens = np.lib.format.open_memmap(path, mode="r+")
            # Offsets change too: rewrite through the same discipline.
            opath = os.path.join(self._spill_dir, "offsets.npy")
            otmp = opath + ".next"
            mm = np.lib.format.open_memmap(
                otmp, mode="w+", dtype=np.int64, shape=(new_offsets.size,))
            mm[:] = new_offsets
            mm.flush()
            del mm
            self._offsets = None
            os.replace(otmp, opath)
            self._offsets = np.lib.format.open_memmap(opath, mode="r+")
        else:
            self._tokens = new_tokens
            self._offsets = new_offsets
        self._n_tokens = new_total

    @property
    def is_spilled(self) -> bool:
        """True once :meth:`spill_to` moved the flat blocks onto mmaps."""
        return self._spill_dir is not None

    @property
    def spill_dir(self) -> Optional[str]:
        """Directory holding ``tokens.npy``/``offsets.npy`` (or None)."""
        return self._spill_dir

    def spill_to(self, directory: Optional[str] = None,
                 stage_tokens: int = _SPILL_STAGE_TOKENS) -> str:
        """Move the flat walk storage onto file-backed ``.npy`` mmaps.

        ``tokens`` and ``offsets`` are rewritten (chunked, so the copy
        itself is O(chunk) resident) onto ``tokens.npy``/``offsets.npy``
        under a fresh private subdirectory of ``directory`` (default:
        the system temp dir), and the corpus keeps
        growing through them: appends accumulate in a bounded in-RAM
        staging buffer (at most ``stage_tokens`` tokens) that every
        :meth:`add_walks` round flushes to disk.  All views, statistics
        and persistence behave identically -- byte for byte -- to the
        in-RAM corpus; only residency changes.

        Returns the spill directory.  Idempotent on an already-spilled
        corpus.  The files are temp artifacts deleted by :meth:`close`
        (or garbage collection); :meth:`save` is the persistence path.
        """
        if self._spill_dir is not None:
            return self._spill_dir
        root = directory or tempfile.gettempdir()
        os.makedirs(root, exist_ok=True)
        self._spill_dir = tempfile.mkdtemp(prefix="repro-corpus-", dir=root)
        self._stage_limit = max(1, int(stage_tokens))
        self._tokens = self._spill_block("tokens.npy", self._tokens,
                                         self._n_tokens)
        self._offsets = self._spill_block("offsets.npy", self._offsets,
                                          self._n_walks + 1)
        return self._spill_dir

    def _spill_block(self, name: str, arr: np.ndarray,
                     n_valid: int) -> np.ndarray:
        path = os.path.join(self._spill_dir, name)
        mm = np.lib.format.open_memmap(path, mode="w+", dtype=np.int64,
                                       shape=(max(int(n_valid), 1),))
        for start in range(0, int(n_valid), _SPILL_COPY_CHUNK):
            stop = min(int(n_valid), start + _SPILL_COPY_CHUNK)
            mm[start:stop] = arr[start:stop]
            # Sync and drop the chunk's dirty pages so the copy itself
            # never charges more than one chunk of residency.
            mm.flush()
            _advise_dontneed(mm)
        mm.flush()
        return mm

    def _resize_block(self, name: str, old: np.ndarray, n_valid: int,
                      new_cap: int) -> np.ndarray:
        """Rewrite spilled block ``name`` onto a file of ``new_cap`` slots.

        Chunked copy into a sibling file, atomic ``os.replace``, reopen.
        Existing views keep reading the replaced inode (same bytes for
        the valid prefix); the superseded maps are reclaimed by
        refcounting once the last view dies.
        """
        path = os.path.join(self._spill_dir, name)
        tmp = path + ".next"
        new = np.lib.format.open_memmap(tmp, mode="w+", dtype=np.int64,
                                        shape=(max(int(new_cap), 1),))
        for start in range(0, int(n_valid), _SPILL_COPY_CHUNK):
            stop = min(int(n_valid), start + _SPILL_COPY_CHUNK)
            new[start:stop] = old[start:stop]
            # Release both sides chunk-wise: reads fault ``old``'s pages
            # back in and writes dirty ``new``'s -- without the per-chunk
            # drop a resize would transiently charge 2x the block size.
            new.flush()
            _advise_dontneed(new)
            _advise_dontneed(old)
        new.flush()
        del new, old
        os.replace(tmp, path)
        return np.lib.format.open_memmap(path, mode="r+")

    def _flush_staging(self) -> None:
        """Write staged appends onto the spilled blocks.

        Grows the files by amortised doubling first, replays the staged
        ``(flat, lengths)`` rounds exactly as the in-RAM ``_append_flat``
        would have (same cumsum, same bases -- byte-identical blocks),
        syncs, and drops the token pages from the resident set.
        """
        if not self._stage:
            return
        stage, self._stage = self._stage, []
        self._stage_tokens = 0
        staged_tokens = sum(int(f.size) for f, _l in stage)
        staged_walks = sum(int(l.size) for _f, l in stage)
        disk_tokens = self._n_tokens - staged_tokens
        disk_walks = self._n_walks - staged_walks
        if self._n_tokens > self._tokens.size:
            old, self._tokens = self._tokens, None
            self._tokens = self._resize_block(
                "tokens.npy", old, disk_tokens,
                max(self._n_tokens, 2 * old.size))
        if self._n_walks + 1 > self._offsets.size:
            old, self._offsets = self._offsets, None
            self._offsets = self._resize_block(
                "offsets.npy", old, disk_walks + 1,
                max(self._n_walks + 1, 2 * old.size))
        t = disk_tokens
        w = disk_walks
        base = int(self._offsets[w])
        for flat, lengths in stage:
            self._tokens[t:t + flat.size] = flat
            out = self._offsets[w + 1:w + 1 + lengths.size]
            np.cumsum(lengths, out=out)
            out += base
            t += int(flat.size)
            w += int(lengths.size)
            base = int(self._offsets[w])
        self._tokens.flush()
        self._offsets.flush()
        _advise_dontneed(self._tokens)

    def spill_handles(self):
        """Zero-copy share of a spilled corpus: handles over its own files.

        Returns ``(tokens_handle, offsets_handle)``
        :class:`repro.utils.sharedmem.SharedArrayHandle`\\ s that workers
        attach read-only, skipping the O(corpus) copy
        ``SharedGroup.share`` would pay.  Shrinks the blocks to logical
        size first (attachers validate shapes against the file).
        Requires a spilled, non-empty corpus.
        """
        from repro.utils.sharedmem import SharedArrayHandle

        if self._spill_dir is None:
            raise RuntimeError("corpus is not spilled; call spill_to first")
        if self._n_tokens == 0:
            raise RuntimeError("an empty corpus has no spill handles")
        self.shrink_to_fit()
        dt = np.dtype(np.int64).str
        return (
            SharedArrayHandle("", (self._n_tokens,), dt,
                              path=os.path.join(self._spill_dir,
                                                "tokens.npy")),
            SharedArrayHandle("", (self._n_walks + 1,), dt,
                              path=os.path.join(self._spill_dir,
                                                "offsets.npy")),
        )

    def close(self) -> None:
        """Delete a spilled corpus's backing files (idempotent no-op
        otherwise).

        The corpus stays fully usable: its maps keep reading the
        unlinked inodes (the disk space is reclaimed when the last map
        dies), and appends after close transparently migrate back to
        in-RAM storage (the next ``_reserve`` copies the logical
        prefix).  No O(corpus) materialisation happens here -- the
        ``__del__`` backstop must stay cheap.
        """
        if self._spill_dir is None:
            return
        if self._stage:
            self._flush_staging()
        spill_dir, self._spill_dir = self._spill_dir, None
        shutil.rmtree(spill_dir, ignore_errors=True)

    def __del__(self) -> None:  # leak backstop, not the contract
        try:
            self.close()
        except Exception:  # pragma: no cover - interpreter teardown
            pass

    # ------------------------------------------------------------------ #
    # Flat + list views
    # ------------------------------------------------------------------ #

    @property
    def tokens(self) -> np.ndarray:
        """The flat token block (int64 view, one entry per corpus token)."""
        if self._stage:
            self._flush_staging()
        return self._tokens[:self._n_tokens]

    @property
    def offsets(self) -> np.ndarray:
        """Monotone walk boundaries: walk ``i`` is
        ``tokens[offsets[i]:offsets[i + 1]]`` (int64[num_walks + 1])."""
        if self._stage:
            self._flush_staging()
        return self._offsets[:self._n_walks + 1]

    @property
    def walk_lengths(self) -> np.ndarray:
        """Per-walk token counts (``np.diff(offsets)``)."""
        return np.diff(self.offsets)

    def walk(self, index: int) -> np.ndarray:
        """Walk ``index`` as a zero-copy view into the token block."""
        if self._stage:
            self._flush_staging()
        if index < 0:
            index += self._n_walks
        if not 0 <= index < self._n_walks:
            raise IndexError(f"walk {index} out of range")
        return self._tokens[self._offsets[index]:self._offsets[index + 1]]

    @property
    def walks(self) -> _WalkSequence:
        """List-style view over the walks (kept API: len/iter/index)."""
        return _WalkSequence(self)

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #

    @property
    def occurrences(self) -> np.ndarray:
        """Per-node occurrence counts ``ocn(v)`` (int64[num_nodes])."""
        return self._occurrences

    @property
    def num_walks(self) -> int:
        return self._n_walks

    @property
    def total_tokens(self) -> int:
        return self._n_tokens

    @property
    def average_walk_length(self) -> float:
        if not self._n_walks:
            return 0.0
        return self.total_tokens / self.num_walks

    def frequency_order(self) -> np.ndarray:
        """Node ids in descending corpus frequency (DSGL's matrix order)."""
        return np.argsort(-self._occurrences, kind="stable").astype(np.int64)

    def kl_from_degree_distribution(self, degrees: np.ndarray) -> float:
        """``D(p ‖ q)`` between the degree distribution and corpus
        occurrences (Eq. 6) -- the walk-count convergence statistic."""
        return kl_divergence(np.asarray(degrees, dtype=np.float64),
                             self._occurrences.astype(np.float64) + 1e-12)

    def shrink_to_fit(self) -> None:
        """Drop the amortised-doubling headroom (resident == logical).

        Called by the walk engine once sampling finishes, so the corpus
        the training phase holds (and shares across workers) carries no
        growth slack; further appends simply grow again.  For a spilled
        corpus the *files* are resized to exact logical size, which also
        makes :meth:`spill_handles` shapes match the on-disk headers.
        """
        if self._spill_dir is not None:
            if self._stage:
                self._flush_staging()
            if self._tokens.size > max(self._n_tokens, 1):
                old, self._tokens = self._tokens, None
                self._tokens = self._resize_block(
                    "tokens.npy", old, self._n_tokens, self._n_tokens)
            if self._offsets.size > self._n_walks + 1:
                old, self._offsets = self._offsets, None
                self._offsets = self._resize_block(
                    "offsets.npy", old, self._n_walks + 1,
                    self._n_walks + 1)
            return
        if self._tokens.size > self._n_tokens:
            self._tokens = self._tokens[:self._n_tokens].copy()
        if self._offsets.size > self._n_walks + 1:
            self._offsets = self._offsets[:self._n_walks + 1].copy()

    def storage_bytes(self) -> Dict[str, int]:
        """Resident-vs-mapped split of the flat walk storage.

        ``resident`` counts bytes that occupy RAM no matter what (the
        occurrence counters, plus any staged appends); ``mapped`` counts
        the file-backed blocks of a spilled corpus, which the OS pages
        in and out on demand.  For an in-RAM corpus everything is
        resident and ``mapped`` is 0.  ``bench_table3_memory.py`` and
        ``bench_ooc_memory_ceiling.py`` gate on this split.
        """
        stage_bytes = sum(int(f.nbytes + l.nbytes) for f, l in self._stage)
        if self._spill_dir is not None:
            return {
                "resident": int(self._occurrences.nbytes + stage_bytes),
                "mapped": int(self._tokens.nbytes + self._offsets.nbytes),
            }
        return {
            "resident": int(self._tokens.nbytes + self._offsets.nbytes
                            + self._occurrences.nbytes + stage_bytes),
            "mapped": 0,
        }

    def memory_bytes(self) -> int:
        """Bytes held by the flat walk storage + counters (memory-table
        benchmarks).  Counts the **allocated** arrays, doubling headroom
        included -- :meth:`shrink_to_fit` drops the headroom when a
        corpus stops growing.  Resident and file-backed bytes both
        count; :meth:`storage_bytes` reports the split."""
        split = self.storage_bytes()
        return split["resident"] + split["mapped"]

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #

    def save(self, path: str) -> None:
        """Persist the corpus as the flat ``.npz`` layout (``tokens`` +
        ``offsets`` + ``num_nodes``, exactly the in-memory
        representation), whatever the path's extension.  Empty corpora
        and zero-length walks round-trip.
        """
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        # Write through a handle so numpy cannot append a second ".npz".
        with open(path, "wb") as handle:
            np.savez(handle,
                     tokens=self.tokens,
                     offsets=self.offsets,
                     num_nodes=np.int64(self.num_nodes))

    @classmethod
    def load(cls, path: str) -> "Corpus":
        """Rebuild a corpus written by :meth:`save`.

        A file that does not start with the ``.npz`` magic bytes is
        refused with a ``ValueError`` naming the path.
        """
        with open(path, "rb") as probe:
            magic = probe.read(len(_NPZ_MAGIC))
        if magic != _NPZ_MAGIC:
            raise ValueError(
                f"{path}: not a flat .npz corpus (no zip header)")
        with np.load(path) as data:
            return cls.from_flat(int(data["num_nodes"]),
                                 data["tokens"], data["offsets"])

    def __iter__(self) -> Iterator[np.ndarray]:
        return iter(self.walks)

    def __len__(self) -> int:
        return self.num_walks

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Corpus(walks={self.num_walks}, tokens={self.total_tokens}, "
            f"avg_len={self.average_walk_length:.1f})"
        )


def shard_walks(tokens: np.ndarray, offsets: np.ndarray, shard: np.ndarray,
                lo: int, hi: int, keep: Optional[np.ndarray] = None,
                keep_key: int = 0) -> List[np.ndarray]:
    """The walks a ``[lo, hi)`` slice of ``shard`` stands for.

    ``shard`` holds walk indices into the flat ``tokens``/``offsets``
    pair; walk ``shard[j]`` for ``j`` in ``[lo, hi)`` comes back as a
    zero-copy view, empty walks skipped.  This is the one resolver of the
    training slice descriptor -- the serial trainer calls it in the
    parent, the slice workers over their shared attachment -- so a slice
    means the same walks in every process.

    ``keep`` (per-node keep probabilities) turns on word2vec subsampling:
    the token at flat position ``t`` survives iff uniform ``t`` of the
    counter stream ``keep_key`` is below ``keep[tokens[t]]``.  The draw is
    indexed by corpus position, not by consumption order, so it is the
    same decision wherever and however the slice is cut.
    """
    idx = shard[lo:hi]
    bounds = zip(offsets[idx].tolist(), offsets[idx + 1].tolist())
    if keep is None:
        return [tokens[a:b] for a, b in bounds if b > a]
    walks = []
    for a, b in bounds:
        walk = tokens[a:b]
        draws = stream_uniforms(np.uint64(keep_key),
                                np.arange(a, b, dtype=np.uint64))
        walk = walk[draws < keep[walk]]
        if walk.size:
            walks.append(walk)
    return walks


class CorpusFeed:
    """The walk→train hand-off: a finished-event over a growing corpus.

    Training derives its global statistics -- the frequency-ordered
    vocabulary, the negative table, the keep probabilities and the lr
    schedule's token total -- from the *whole* corpus, so the earliest
    byte-preserving start of training is the moment sampling stops.  The
    producer (the walk phase, possibly on another thread) calls
    :meth:`finish` once the last round is in;
    ``DistributedTrainer(feed=...)`` blocks in :meth:`wait_finished`
    once, before it reads anything from the corpus.
    """

    def __init__(self, corpus: Corpus) -> None:
        self.corpus = corpus
        self._done = threading.Event()

    def finish(self) -> None:
        """The producer is done: no more walks will arrive."""
        self._done.set()

    @property
    def finished(self) -> bool:
        return self._done.is_set()

    def wait_finished(self, timeout: Optional[float] = None) -> None:
        """Block until the producer finished; ``TimeoutError`` after
        ``timeout`` seconds."""
        if not self._done.wait(timeout):
            raise TimeoutError("corpus feed never finished")
