"""Loader of the compiled kernels -- the HuGE step resolver and whole
walks (``walks/huge_step.c``), the DSGL planner's compiled half
(``embedding/dsgl_plan.c``) and the exact lanes of the DSGL trainer step
(``embedding/dsgl_step.c``) -- built into one library.

:func:`load` returns it, or ``None`` when it cannot be built or loaded --
then the NumPy trial lanes, the NumPy planner and the ``ArrayOps`` step
loop run, with the same bytes, and one ``RuntimeWarning`` per process says
why.  It is compiled once per hash of the sources and flags with ``$CC``
(default ``cc``) into the user-private ``$XDG_CACHE_HOME/repro`` (default
``~/.cache/repro``), each build sealed with its own SHA-256 and renamed
into place, so concurrent builders load complete libraries and a damaged
cache entry is rebuilt before the dynamic loader maps it.
"""

from __future__ import annotations

import ctypes
import hashlib
import itertools
import os
import shlex
import stat
import subprocess
import tempfile
import warnings
from functools import partial
from typing import Optional, Sequence, Tuple

import numpy as np

_SOURCES = tuple(os.path.join(os.path.dirname(__file__), *parts) for parts
                 in (("walks", "huge_step.c"), ("embedding", "dsgl_plan.c"),
                     ("embedding", "dsgl_step.c")))
# -O3 vectorises the step lanes; it reassociates nothing without
# -ffast-math, and -ffp-contract=off keeps each * and + its own rounding.
# -fno-math-errno: ``sqrt`` is the bare (correctly rounded) instruction,
# with no libm call to resolve.
_FLAGS = ("-O3", "-ffp-contract=off", "-fno-math-errno", "-fPIC", "-shared")
#: dsgl_step.c's kernels, each ``(lanes, lo, hi)``.
_LANES = ("dsgl_gather", "dsgl_pre_exp", "dsgl_post_exp", "dsgl_add_scatter")
_SEAL = hashlib.sha256().digest_size
_UNSET = object()
_library = _UNSET


def cache_dir() -> Optional[str]:
    """The user-private cache directory (created 0700), or ``None`` when
    it is not this user's or others may write to it."""
    root = (os.environ.get("XDG_CACHE_HOME")
            or os.path.join(os.path.expanduser("~"), ".cache"))
    path = os.path.join(root, "repro")
    os.makedirs(path, mode=0o700, exist_ok=True)
    info = os.stat(path)
    if (not stat.S_ISDIR(info.st_mode) or info.st_uid != os.getuid()
            or info.st_mode & (stat.S_IWGRP | stat.S_IWOTH)):
        return None
    return path


def library_path(directory: str) -> str:
    """Where the library of the current sources and flags is cached."""
    digest = hashlib.sha256(" ".join(_FLAGS).encode())
    for source in _SOURCES:
        with open(source, "rb") as handle:
            digest.update(handle.read())
    return os.path.join(directory, f"native-{digest.hexdigest()[:16]}.so")


def _sealed(path: str) -> bool:
    """Whether ``path`` is a complete build: its bytes end in their hash."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        return False
    return (len(data) > _SEAL
            and hashlib.sha256(data[:-_SEAL]).digest() == data[-_SEAL:])


def _build(path: str) -> None:
    fd, scratch = tempfile.mkstemp(dir=os.path.dirname(path),
                                   prefix=".build-", suffix=".so")
    os.close(fd)
    try:
        compiler = shlex.split(os.environ.get("CC") or "cc")
        subprocess.run([*compiler, *_FLAGS, "-o", scratch, *_SOURCES],
                       check=True, capture_output=True, timeout=300)
        with open(scratch, "r+b") as handle:
            handle.write(hashlib.sha256(handle.read()).digest())
        os.replace(scratch, path)
    finally:
        if os.path.exists(scratch):
            os.unlink(scratch)


def _open(path: str):
    lib = ctypes.CDLL(path)
    count, pointer = ctypes.c_int64, ctypes.c_void_p
    lib.huge_resolve_steps.restype = lib.dsgl_plan.restype = count
    lib.huge_resolve_steps.argtypes = [count, *[pointer] * 3, count,
                                       *[pointer] * 2, count, *[pointer] * 2]
    lib.dsgl_plan.argtypes = [pointer] * 15
    lib.huge_walks.restype = None
    lib.huge_walks.argtypes = [*[pointer] * 4, count, *[pointer] * 2,
                               *[count] * 3, ctypes.c_double,
                               *[pointer] * 7]
    for name in _LANES:
        getattr(lib, name).restype = None
        getattr(lib, name).argtypes = [pointer, count, count]
    return lib


def load():
    """The library, or ``None``; resolved once per process -- by the
    parent, before any walk or slice pool starts (forked workers inherit
    it), or by whichever walk kernel or planner asks first."""
    global _library
    if _library is _UNSET:
        _library = None
        try:
            directory = cache_dir()
            if directory is None:
                raise OSError("the cache directory is not private to this "
                              "user")
            path = library_path(directory)
            if not _sealed(path):
                _build(path)     # absent, truncated or corrupt
            _library = _open(path)
        except (OSError, AttributeError, subprocess.SubprocessError) as error:
            reason = str(error)
            if isinstance(error, subprocess.CalledProcessError):
                reason = " ".join((f"exit status {error.returncode}",
                                   error.stderr.decode(errors="replace"))
                                  ).strip()
            warnings.warn(
                f"the compiled kernels are unavailable "
                f"($CC={os.environ.get('CC') or 'cc'!r}: {reason}); the NumPy "
                f"fallbacks run with the same bytes, slower",
                RuntimeWarning, stacklevel=2)
    return _library


def _checked(array: np.ndarray, dtype, size, kernel="resolver") -> int:
    """``array``'s data pointer, once it is a C-contiguous ``dtype`` array
    of ``size`` items (or of shape ``size``, a tuple)."""
    shape = size if isinstance(size, tuple) else (size,)
    if (array.dtype != dtype or array.shape != shape
            or not array.flags.c_contiguous):
        raise ValueError(f"{kernel} expects {size} contiguous {dtype} "
                         f"items, got {array.shape} {array.dtype}")
    return array.ctypes.data


def resolve_steps(indptr: np.ndarray, cumsum: Optional[np.ndarray],
                  accept: np.ndarray, cur: np.ndarray, args: np.ndarray,
                  horizon: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(arc, trials)`` of each walker's whole step, ``args`` advanced in
    place; ``cumsum`` is ``row_cumsum``, ``None`` on unweighted graphs."""
    nodes, arcs, n = indptr.size - 1, int(indptr[-1]), cur.size
    arc = np.empty(n, dtype=np.int64)
    trials = np.empty(n, dtype=np.int64)
    bad = load().huge_resolve_steps(
        nodes, _checked(indptr, np.int64, nodes + 1),
        None if cumsum is None else _checked(cumsum, np.float64, arcs),
        _checked(accept, np.float64, arcs), n,
        _checked(cur, np.int64, n), _checked(args, np.uint64, n),
        int(horizon), arc.ctypes.data, trials.ctypes.data)
    if bad:
        raise ValueError(f"walker {bad - 1} stands on node "
                         f"{int(cur[bad - 1])}, which has no out-arcs")
    return arc, trials


def huge_walks(indptr: np.ndarray, indices: np.ndarray,
               cumsum: Optional[np.ndarray], accept: np.ndarray,
               sources: np.ndarray, args: np.ndarray, horizon: int, out,
               min_length: int = 0, mu: float = 0.0,
               gain: Optional[np.ndarray] = None,
               log2_of: Optional[np.ndarray] = None,
               state: Optional[np.ndarray] = None) -> None:
    """Each walker from ``sources`` at stream argument ``args`` to
    termination, written into the ``WalkBuffers`` ``out``: a dead end,
    ``cap`` tokens or -- given InCoM's ``gain`` and ``log2_of`` tables
    (``cap + 1`` long) and a ``(6, n)`` ``state`` for each walker's final
    ``S`` and five moments -- ``R² < mu`` from ``min_length`` tokens on.
    ``cumsum`` is ``row_cumsum``, ``None`` on unweighted graphs."""
    nodes, arcs, n = indptr.size - 1, int(indptr[-1]), sources.size
    cap = out.paths.shape[-1]
    measure = (gain, log2_of, state)
    if len({table is None for table in measure}) > 1:
        raise ValueError("InCoM walks take gain, log2_of and state")
    pointers = [
        None if array is None and optional
        else _checked(array, dtype, size, "walks")
        for array, dtype, size, optional in (
            (indptr, np.int64, nodes + 1, False),
            (indices, np.int64, arcs, False),
            (cumsum, np.float64, arcs, True),
            (accept, np.float64, arcs, False),
            (sources, np.int64, n, False), (args, np.uint64, n, False),
            (gain, np.float64, cap + 1, True),
            (log2_of, np.float64, cap + 1, True),
            *zip(out, (np.int64, np.int64, np.int32, np.int64),
                 ((n, cap), n, (n, cap), (n, cap)), [False] * 4),
            (state, np.float64, (6, n), True))]
    bad = np.flatnonzero((sources < 0) | (sources >= nodes))
    if bad.size:
        raise ValueError(f"walker {bad[0]} starts at node "
                         f"{int(sources[bad[0]])}, outside [0, {nodes})")
    load().huge_walks(*pointers[:4], n, *pointers[4:6], int(horizon), cap,
                      int(min_length), float(mu), *pointers[6:])


#: Per buffer: size, merged, gathered, wide, wide size, layers + 7 slots.
_COUNTS = 13


def plan_slice(tok: np.ndarray, pool: np.ndarray, walk_sizes: np.ndarray,
               group_walks: np.ndarray, group_lr: np.ndarray, vocab: int,
               negatives: int, multi_windows: int, window: int):
    """The compiled half of a DSGL slice plan, from the groups' row-mapped
    tokens, pools, walk sizes, walk counts and rates: ``(buffers,
    step_offsets, lr, cidx, oidx, labels, mask)``, ``buffers`` holding the
    context and the output buffer's ``(gather, bounds, merge, dest)`` --
    ``merge`` as :meth:`DuplicateRowSum.from_layout` takes it."""
    n, k, groups = tok.size, int(negatives), group_walks.size
    args = [_checked(array, dtype, size, "planner") for array, dtype, size
            in ((tok, np.int64, n), (pool, np.int64, n * k),
                (walk_sizes, np.int64, walk_sizes.size),
                (group_walks, np.int64, groups),
                (group_lr, np.float64, groups))]
    m_max, b_max = multi_windows * 2 * window, multi_windows + k
    dims = np.array([groups, walk_sizes.size, n, vocab, k, multi_windows,
                     window], dtype=np.int64)
    # Sized for the most lifetimes, steps and slots n tokens make; merge
    # structures live to the write-back, step lanes only to the steps.
    sizes = [size for cap in (n, n * (k + 1))
             for size in (cap, groups + 1, *[cap] * 6, groups + 1)]
    starts = list(itertools.accumulate(sizes, initial=0))
    arena = np.empty(starts[-1] + 2 * _COUNTS + 3 + n + 1, dtype=np.int64)
    table = np.array([arena.ctypes.data + 8 * lo for lo in starts[:-1]],
                     dtype=np.uintp)
    lanes = np.empty(n * (m_max + b_max), dtype=np.int64)
    floats = np.empty((2, n, m_max, b_max), dtype=np.float32)
    lr = np.empty((n, 1, 1), dtype=np.float64)
    status = load().dsgl_plan(
        dims.ctypes.data, *args, table.ctypes.data, table.ctypes.data + 72,
        *(arena.ctypes.data + 8 * (starts[-1] + at)
          for at in (0, 2 * _COUNTS + 3)),
        lr.ctypes.data, lanes.ctypes.data, lanes.ctypes.data + 8 * n * m_max,
        floats.ctypes.data, floats[1].ctypes.data)
    if status in (1, 2):
        raise IndexError(
            "DSGL plan gathers rows outside the model matrices" if status == 1
            else "DSGL plan indexes outside its local buffers")
    if status:
        raise (MemoryError("DSGL planner: out of memory") if status == 3
               else ValueError("planner inputs do not describe a DSGL slice"))
    counts = arena[starts[-1]:].tolist()
    chunks, steps, slots = counts[2 * _COUNTS:2 * _COUNTS + 3]
    buffers = []
    for b in (0, 1):
        (gather, bounds, rows, order, wide_order, wide_starts, dest_rows,
         dest_at, cuts) = (arena[starts[i]:starts[i + 1]]
                           for i in range(9 * b, 9 * b + 9))
        size, merged, gathered, wide, wide_size, layers, *layer = \
            counts[_COUNTS * b:_COUNTS * (b + 1)]
        cuts = cuts.tolist()
        buffers.append((
            gather[:size], bounds.tolist(),
            (rows[:merged], order[:gathered], layer[:layers], wide)
            + ((wide_order[:wide_size], wide_starts[:wide]) if wide else ()),
            [(dest_rows[lo:hi], dest_at[lo:hi])
             for lo, hi in zip(cuts[:-1], cuts[1:])]))
    return (buffers, counts[2 * _COUNTS + 3:][:steps + 1], lr[:chunks],
            lanes[:slots * m_max].reshape(slots, m_max),
            lanes[n * m_max:n * m_max + slots * b_max].reshape(slots, b_max),
            floats[0, :slots], floats[1, :slots])


def step_lanes(offsets: Sequence[int], m: int, b: int, cidx: np.ndarray,
               oidx: np.ndarray, labels: np.ndarray, mask: np.ndarray,
               lr: np.ndarray, ctx_mega: np.ndarray, out_mega: np.ndarray,
               work: Sequence[np.ndarray]):
    """dsgl_step.c's four kernels -- gather, pre-exp, post-exp and
    add-scatter -- bound to one plan's step tensors (``m`` context and
    ``b`` output lanes per slot), local buffers and float32 ``work``spaces
    ``(ctx_vecs, out_vecs, scores, ctx_delta, out_delta)``, each a callable
    of a step's plan rows ``(lo, hi)``.  Every array is checked here, once
    per plan; the caller keeps them alive while it calls the kernels."""
    steps = np.diff(np.asarray(offsets, dtype=np.int64))
    if not steps.size or offsets[0] != 0 or steps.min() < 0:
        raise ValueError(f"step lanes expect step offsets rising from 0, "
                         f"got {list(offsets)[:8]}")
    slots, width, d = offsets[-1], int(steps.max()), ctx_mega.shape[-1]
    arrays = {
        "cidx": (cidx, np.int64, (slots, m)),
        "oidx": (oidx, np.int64, (slots, b)),
        "labels": (labels, np.float32, (slots, m, b)),
        "mask": (mask, np.float32, (slots, m, b)),
        "lr": (lr[:width], np.float32, (width, 1, 1)),   # windowless too
        "ctx_mega": (ctx_mega, np.float32, (ctx_mega.shape[0], d)),
        "out_mega": (out_mega, np.float32, (out_mega.shape[0], d)),
        **{name: (array, np.float32, (width, rows, cols)) for name, array,
           rows, cols in zip(("ctx_vecs", "out_vecs", "scores", "ctx_delta",
                              "out_delta"), work,
                             (m, b, m, m, b), (d, d, b, d, d))}}
    pointers = [_checked(array, dtype, size, f"step lanes' {name}")
                for name, (array, dtype, size) in arrays.items()]
    for name, idx, mega in (("cidx", cidx, ctx_mega),
                            ("oidx", oidx, out_mega)):
        if idx.size and (idx.min() < 0 or idx.max() >= mega.shape[0]):
            raise ValueError(f"step lanes' {name} indexes outside its "
                             f"{mega.shape[0]}-row local buffer")
    lib = load()
    table = (ctypes.c_uint64 * (3 + len(pointers)))(d, m, b, *pointers)
    return [partial(getattr(lib, name), table) for name in _LANES]
