"""Loader of the HuGE kernels' compiled step resolver (``huge_step.c``).

:func:`load` returns the resolver, or ``None`` when it cannot be built or
loaded -- then the NumPy trial lanes run, with the same bytes.  It is
compiled once per source hash with ``$CC`` (default ``cc``) into the
user-private ``$XDG_CACHE_HOME/repro`` (default ``~/.cache/repro``), each
build sealed with its own SHA-256 and renamed into place, so concurrent
builders load complete libraries and a damaged cache entry is rebuilt
before the dynamic loader maps it.  docs/ARCHITECTURE.md, "The walk
kernel interface", has the byte contract.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shlex
import stat
import subprocess
import tempfile
from typing import Optional, Tuple

import numpy as np

_SOURCE = os.path.join(os.path.dirname(__file__), "huge_step.c")
_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
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
    """Where the library of the current source and flags is cached."""
    with open(_SOURCE, "rb") as handle:
        digest = hashlib.sha256(handle.read() + " ".join(_FLAGS).encode())
    return os.path.join(directory, f"huge_step-{digest.hexdigest()[:16]}.so")


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
        subprocess.run([*compiler, *_FLAGS, "-o", scratch, _SOURCE],
                       check=True, capture_output=True, timeout=300)
        with open(scratch, "r+b") as handle:
            handle.write(hashlib.sha256(handle.read()).digest())
        os.replace(scratch, path)
    finally:
        if os.path.exists(scratch):
            os.unlink(scratch)


def _open(path: str):
    lib = ctypes.CDLL(path)
    resolve = lib.huge_resolve_steps
    count, pointer = ctypes.c_int64, ctypes.c_void_p
    resolve.restype = count
    resolve.argtypes = [count, *[pointer] * 3, count, *[pointer] * 2, count,
                        *[pointer] * 2]
    return resolve


def load():
    """The resolver entry point, or ``None``; resolved once per process
    (the first HuGE kernel built asks, before any worker pool starts)."""
    global _library
    if _library is _UNSET:
        _library = None
        try:
            directory = cache_dir()
            if directory is not None:
                path = library_path(directory)
                if not _sealed(path):
                    _build(path)     # absent, truncated or corrupt
                _library = _open(path)
        except (OSError, AttributeError, subprocess.SubprocessError):
            pass
    return _library


def _checked(array: np.ndarray, dtype, size: int) -> int:
    """``array``'s data pointer, once it is ``size`` contiguous ``dtype``."""
    if (array.dtype != dtype or array.size != size or array.ndim != 1
            or not array.flags.c_contiguous):
        raise ValueError(f"resolver expects {size} contiguous {dtype} "
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
    bad = load()(
        nodes, _checked(indptr, np.int64, nodes + 1),
        None if cumsum is None else _checked(cumsum, np.float64, arcs),
        _checked(accept, np.float64, arcs), n,
        _checked(cur, np.int64, n), _checked(args, np.uint64, n),
        int(horizon), arc.ctypes.data, trials.ctypes.data)
    if bad:
        raise ValueError(f"walker {bad - 1} stands on node "
                         f"{int(cur[bad - 1])}, which has no out-arcs")
    return arc, trials
