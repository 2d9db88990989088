"""Array-ops seam: the backend-neutral primitives of the trainer hot path.

Every gather, stacked matmul, sigmoid and scatter in the batched learners
(:mod:`repro.embedding.vectorized`) and the shared DSGL step kernel flows
through one of the two implementations here:

* :class:`NumpyOps` -- the reference.  Each method wraps the NumPy call
  the learners made before the seam existed (same ``out=`` discipline,
  same operand order, same arithmetic), so the default float32 path is
  byte-identical to the pre-seam trainer.  A ``dtype`` knob turns the same
  code into the float64 high-precision tier.

* :class:`TorchOps` -- buffers live as torch tensors, on CPU or CUDA.
  The CPU tier is the **parity tier**: torch CPU tensors share memory
  with NumPy views (``tensor.numpy()`` is zero-copy), so the primitives
  whose rounding depends on the kernel implementation -- GEMM reduction
  order, libm ``exp`` -- are routed through the *same* host BLAS/libm the
  NumPy backend uses, while storage, exact-IEEE elementwise arithmetic
  (``+=``/``-=``/``*=`` are correctly rounded everywhere) and indexing
  run on the tensors.  That makes CPU-torch output byte-equal to the
  NumPy backend **by construction**, at float32 and float64 alike --
  pinned by ``tests/test_torch_backend_parity.py``.  The CUDA tier runs
  native device kernels (different reduction orders, so no byte
  contract) and is gated on golden-band AUC plus the measured Table-9
  bench instead.

Duplicate-row accumulation order
--------------------------------
Scatter-add is where backends classically diverge: ``np.add.at``
accumulates duplicate indices sequentially in input order, torch's
``index_add_`` only guarantees that order on CPU, and CUDA atomics make
it nondeterministic -- ties (same row, different lifetimes) then round
differently run to run.  The seam pins one semantics instead of chasing
kernel behaviour: :func:`sum_duplicate_rows` reduces each destination
row's deltas in input order *first* -- as ``d1 + (d2 + ... + dk)``, the
association spelled out on :class:`DuplicateRowSum` -- and applies one
``+=`` per row (the ``merge_deltas`` contract in
:mod:`repro.embedding.vectorized`), and the trainer always reconciles on
the host over downloaded deltas -- so reconciliation bytes are identical
across numpy/torch-CPU/CUDA by construction.  ``ops.index_add`` exists
for in-place device accumulation and follows the same pinned semantics
(hypothesis-tested against ``np.add.at`` on CPU).

Device dataflow / double buffering
----------------------------------
Global model state stays NumPy float32 (shared memory and the sync
strategies are untouched).  A device backend uploads each cohort's plan
constants and slice-gathered buffers, computes the lock-step batches on
device, downloads the deltas and merges them on the host.  On CUDA the
plan-constant uploads are non-blocking copies and compute waits for
them only at :meth:`TorchOps.join`, so the trainer can stage cohort
``i+1``'s tensors while cohort ``i``'s kernels are still queued -- the
double-buffered slice-upload pattern.  On CPU (either
backend) every call is synchronous and the staging hooks are no-ops.

torch is an **optional** dependency: nothing here imports it at module
load, :func:`torch_available` probes without importing, and
:func:`require_torch` raises the actionable install hint.
"""

from __future__ import annotations

import importlib.util
from typing import List, Optional, Tuple

import numpy as np

__all__ = [
    "ArrayOps",
    "DuplicateRowSum",
    "NUMPY_OPS",
    "NumpyOps",
    "TORCH_INSTALL_HINT",
    "TorchOps",
    "require_torch",
    "resolve_ops",
    "sum_duplicate_rows",
    "torch_available",
]

#: The actionable message every torch-gated entry point raises.
TORCH_INSTALL_HINT = (
    "torch not installed — pip install torch (CPU wheels are enough for "
    "the byte-parity tier; CUDA wheels enable the float32 device tier)"
)


def torch_available() -> bool:
    """Whether PyTorch is importable (probed without importing it)."""
    return importlib.util.find_spec("torch") is not None


def require_torch():
    """Import and return torch, or raise the actionable install hint."""
    try:
        import torch
    except ImportError as exc:  # pragma: no cover - exercised without torch
        raise ImportError(
            f"TrainConfig.backend='torch' requires PyTorch: "
            f"{TORCH_INSTALL_HINT}"
        ) from exc
    return torch


#: Most contributors a destination row may have and still be summed by the
#: layered reduce.  ``np.add.reduceat`` sums a segment as its first row
#: plus NumPy's pairwise sum of the remaining ``k - 1``, and that kernel
#: is a plain left-to-right loop below eight addends; from eight on it
#: switches to eight unrolled accumulators, which only ``reduceat`` itself
#: reproduces.
_LAYERED_CONTRIBUTORS = 8


class DuplicateRowSum:
    """The deltas-free half of :func:`sum_duplicate_rows`.

    Built from the destination ``rows`` alone (they may repeat), so a
    caller that knows its rows before its deltas -- the DSGL planner --
    pays for the sort ahead of time and runs only :meth:`reduce` on the
    hot side.  The structure is: a stable sort by row (each row's
    contributors stay in input order), one segment per distinct row, and
    the segments ordered by descending contributor count, ties by
    ascending row -- :attr:`rows` lists the distinct rows in that order.

    :meth:`reduce` returns one merged delta per entry of :attr:`rows`
    under the pinned association

        ``merged = d1 + (d2 + d3 + ... + dk)``, the bracket left to right,

    ``d1 .. dk`` being the row's contributors in input order.  That is
    bit for bit what ``np.add.reduceat`` computes over the row-sorted
    layout for ``k <= 8``; rows with more contributors go through that
    very ``reduceat`` (first contributor plus NumPy's pairwise sum of the
    rest), so every row's result is what one ``reduceat`` over the whole
    layout would give -- a deterministic function of the row's own delta
    subsequence alone, however other rows interleave.  Rounding therefore
    is *not* that of a naive sequential loop.
    """

    __slots__ = ("rows", "_gather", "_layers", "_wide", "_wide_gather",
                 "_wide_starts")

    def __init__(self, rows: np.ndarray) -> None:
        n = int(rows.size)
        self._layers: List[int] = []
        self._wide = 0
        if n == 0:
            self.rows = rows[:0]
            self._gather = np.empty(0, dtype=np.int64)
            return
        order = np.argsort(rows, kind="stable")
        rows_sorted = rows[order]
        new = np.empty(n, dtype=bool)
        new[0] = True
        np.not_equal(rows_sorted[1:], rows_sorted[:-1], out=new[1:])
        starts = np.flatnonzero(new)
        sizes = np.empty(starts.size, dtype=np.int64)
        sizes[:-1] = starts[1:] - starts[:-1]
        sizes[-1] = n - starts[-1]
        by_size = np.argsort(-sizes, kind="stable")
        starts = starts[by_size]
        sizes = sizes[by_size]
        self.rows = rows_sorted[starts]
        top = int(sizes[0])
        if top == 1:
            self._gather = order
            return
        # Descending sizes: "segments with more than r contributors" is a
        # prefix, found by bisection on the negated (ascending) sizes.
        ranks = np.arange(1, min(top, _LAYERED_CONTRIBUTORS) + 1)
        *longer, wide = np.searchsorted(-sizes, -ranks).tolist()
        # Rank-major gather: every segment's first contributor, then the
        # second of every layered segment that has one, the third, ...
        # Wide segments keep only their first row here (overwritten by
        # the reduceat below) so ``rows`` and the merged block stay one
        # aligned run.
        parts = [starts]
        for rank, count in enumerate(longer, start=1):
            parts.append(starts[wide:count] + rank)
        self._gather = order[np.concatenate(parts)]
        self._layers = [count - wide for count in longer]
        self._wide = wide
        if wide:
            wide_sizes = sizes[:wide]
            excl = np.zeros(wide, dtype=np.int64)
            np.cumsum(wide_sizes[:-1], out=excl[1:])
            self._wide_gather = order[
                np.arange(int(wide_sizes.sum()), dtype=np.int64)
                - np.repeat(excl, wide_sizes)
                + np.repeat(starts[:wide], wide_sizes)]
            self._wide_starts = excl

    @classmethod
    def from_layout(cls, *fields) -> "DuplicateRowSum":
        """The structure from its fields in ``__slots__`` order, computed as
        ``__init__`` computes them (the compiled DSGL planner's)."""
        merge = cls.__new__(cls)
        for name, value in zip(cls.__slots__, fields):
            setattr(merge, name, value)
        return merge

    def reduce(self, deltas: np.ndarray) -> np.ndarray:
        """Merged deltas, row-aligned with :attr:`rows` (a fresh array).

        ``deltas`` holds one row per entry of the ``rows`` the structure
        was built from (extra trailing rows are ignored; a short block is
        an ``IndexError``).  One full-width ``take`` lays the
        contributors out rank-major; because segments are ordered by
        descending size, the segments still active at each rank are a
        prefix, so every rank is one contiguous ``+=``.
        """
        stack = deltas.take(self._gather, axis=0)
        if not self._layers:
            return stack
        unique = self.rows.size
        wide = self._wide
        merged = stack[:unique]
        lo = unique + self._layers[0]
        rest = stack[unique:lo]
        for count in self._layers[1:]:
            rest[:count] += stack[lo:lo + count]
            lo += count
        merged[wide:wide + self._layers[0]] += rest
        if wide:
            merged[:wide] = np.add.reduceat(
                deltas.take(self._wide_gather, axis=0), self._wide_starts,
                axis=0)
        return merged


def sum_duplicate_rows(rows: np.ndarray,
                       deltas: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Reduce per-row deltas: ``(distinct_rows, merged)`` with pinned order.

    ``rows`` may repeat.  Each distinct row's deltas are summed **in
    input order** as ``d1 + (d2 + ... + dk)`` -- see
    :class:`DuplicateRowSum`, whose two halves (structure from ``rows``,
    reduce over ``deltas``) this runs back to back.  It is the single
    accumulation-order contract shared by ``merge_deltas``, the DSGL
    plan's write-back (which builds the structure at plan time) and
    every CPU backend's ``index_add``.  ``distinct_rows`` comes most
    contested first, ties by ascending row; callers apply one ``+=`` per
    row, for which the order is immaterial.
    """
    structure = DuplicateRowSum(rows)
    return structure.rows, structure.reduce(deltas)


class ArrayOps:
    """Interface of the trainer's array primitives (see module docstring).

    ``kind`` identifies the implementation, ``device`` where buffers
    live; ``dtype`` is the buffer element type as a NumPy dtype.  Host
    index arrays (``int64``) and the learning rate (a Python float, kept
    float64 end-to-end by the trainer) cross the seam unchanged --
    backends convert at the boundary.
    """

    kind = "abstract"
    device = "cpu"

    # -- allocation / movement ---------------------------------------- #

    def empty(self, shape):
        raise NotImplementedError

    def zeros(self, shape):
        raise NotImplementedError

    def zeros_like(self, x):
        raise NotImplementedError

    def const(self, arr):
        """Adopt a host int64 index array (device copy where needed)."""
        raise NotImplementedError

    def mask(self, arr):
        """Adopt a host float mask array (0.0/1.0 lanes -- exact)."""
        raise NotImplementedError

    def upload(self, host):
        """Adopt a host float block as a backend buffer (dtype-cast)."""
        raise NotImplementedError

    def join(self) -> None:
        """Make compute wait for outstanding staged uploads (no-op on CPU)."""

    def download(self, x) -> np.ndarray:
        """Host float64/float32 view or copy of a backend buffer."""
        raise NotImplementedError

    def clone(self, x):
        raise NotImplementedError

    # -- kernels -------------------------------------------------------- #

    def take(self, src, idx, out) -> None:
        """``out[...] = src[idx]`` for row gathers (idx int64, any shape).

        The caller guarantees ``0 <= idx < len(src)`` (the DSGL plan
        checks its index tensors once, at construction), so the CPU
        tiers run the unbuffered ``mode="clip"`` gather instead of
        re-validating every step.
        """
        raise NotImplementedError

    def gather(self, src, idx):
        """Fresh ``src[idx]`` row gather."""
        raise NotImplementedError

    def scatter_rows(self, dst, idx, src) -> None:
        """``dst[idx] = src`` -- duplicate indices follow Hogwild
        last-write-wins on the parity tiers (NumPy semantics); CUDA's
        write order for duplicates is undefined, which is inside the
        quality-gated tier's contract."""
        raise NotImplementedError

    def index_add(self, dst, rows, src) -> None:
        """``dst[rows] += src`` under the pinned duplicate-row order of
        :func:`sum_duplicate_rows`."""
        raise NotImplementedError

    def sub(self, a, b, out) -> None:
        """``out[...] = a - b`` (equal shapes; exact elementwise)."""
        raise NotImplementedError

    def sigmoid(self, x):
        """Fresh clipped logistic (word2vec's ±6 clip)."""
        raise NotImplementedError

    def sigmoid_(self, x) -> None:
        """In-place clipped logistic."""
        raise NotImplementedError

    def matmul(self, a, b):
        """Fresh ``a @ b`` (vector or matrix operands)."""
        raise NotImplementedError

    def matmul_nt(self, a, b):
        """Fresh ``a @ b.T`` (2-D operands)."""
        raise NotImplementedError

    def matmul_tn(self, a, b):
        """Fresh ``a.T @ b`` (2-D operands)."""
        raise NotImplementedError

    def outer(self, a, b):
        """Fresh outer product of two vectors."""
        raise NotImplementedError

    def rowwise_dot(self, a, b):
        """Fresh per-row dot products of two equal-shape 2-D buffers."""
        raise NotImplementedError

    def anchor_pull(self, dst, rows, anchors, scale) -> None:
        """``dst[rows] += scale * (1 - sigmoid(dst[rows] . anchors)) * anchors``

        The persona-regularizer step (Splitter's anchor term): each
        selected row is pulled toward its anchor vector with strength
        proportional to how far the row's logit against the anchor is
        from saturation.  ``rows`` is a host int64 array (expected
        duplicate-free -- the learner passes the unique rows of a
        slice); ``anchors`` is row-aligned with ``rows`` (``(len(rows),
        d)`` backend buffer); ``scale`` is a Python float (``lr * λ``).

        The default composes existing primitives, so every backend
        inherits it with its own parity/quality contract: the reduction
        (:meth:`rowwise_dot`) and transcendental (:meth:`sigmoid`)
        follow the backend's routing (host BLAS/libm on the CPU tiers),
        the remaining arithmetic is exact elementwise, and the
        accumulation goes through :meth:`index_add`'s pinned order --
        which makes torch-CPU byte-equal to NumPy here by construction,
        same as the training step itself.
        """
        current = self.gather(dst, rows)
        coeff = self.sigmoid(self.rowwise_dot(current, anchors))
        # (1 - σ) * scale, exact elementwise on either backend's buffers.
        coeff = (1.0 - coeff) * scale
        self.index_add(dst, rows, coeff[:, None] * anchors)

    def bmm(self, a, b, out) -> None:
        """Stacked ``out = a @ b`` over the leading axis."""
        raise NotImplementedError

    def bmm_nt(self, a, b, out) -> None:
        """Stacked ``out = a @ b.transpose(-1, -2)``."""
        raise NotImplementedError

    def bmm_tn(self, a, b, out) -> None:
        """Stacked ``out = a.transpose(-1, -2) @ b``."""
        raise NotImplementedError


class NumpyOps(ArrayOps):
    """Reference implementation: the learners' original NumPy calls.

    With the default ``float32`` dtype, every method computes exactly
    what the pre-seam learners did (``take(..., out=)``,
    ``np.matmul(..., out=)``, the clip/negate/exp/+1/divide sigmoid
    pipeline) through the cheapest dispatch that keeps the bytes, so the
    trainer's output is unchanged.  ``NumpyOps(np.float64)`` is the
    host-side high-precision tier the torch-CPU float64 path is pinned
    against.
    """

    kind = "numpy"
    device = "cpu"

    def __init__(self, dtype=np.float32) -> None:
        self.dtype = np.dtype(dtype)

    # -- allocation / movement ---------------------------------------- #

    def empty(self, shape):
        return np.empty(shape, dtype=self.dtype)

    def zeros(self, shape):
        return np.zeros(shape, dtype=self.dtype)

    def zeros_like(self, x):
        return np.zeros_like(x)

    def const(self, arr):
        return arr

    def mask(self, arr):
        # Masks hold exact 0.0/1.0 lanes; float32 masks multiply into
        # float64 gradients without rounding, so no cast is needed.
        return arr

    def upload(self, host):
        # Identity when dtypes already match -- the float32 default path
        # adopts the caller's buffer without copying.
        return np.asarray(host, dtype=self.dtype)

    def download(self, x) -> np.ndarray:
        return x

    def clone(self, x):
        return x.copy()

    # -- kernels -------------------------------------------------------- #

    def take(self, src, idx, out) -> None:
        src.take(idx, axis=0, out=out, mode="clip")

    def gather(self, src, idx):
        return src[idx]

    def scatter_rows(self, dst, idx, src) -> None:
        dst[idx] = src

    def index_add(self, dst, rows, src) -> None:
        urows, merged = sum_duplicate_rows(rows, src)
        dst[urows] += merged

    def sub(self, a, b, out) -> None:
        np.subtract(a, b, out=out)

    def sigmoid(self, x):
        return 1.0 / (1.0 + np.exp(-np.clip(x, -6.0, 6.0)))

    def sigmoid_(self, x) -> None:
        # minimum/maximum are the clip ufunc's two halves without
        # np.clip's Python-level dispatch (same bytes, NaN included).
        np.minimum(x, 6.0, out=x)
        np.maximum(x, -6.0, out=x)
        np.negative(x, out=x)
        np.exp(x, out=x)
        x += 1.0
        np.divide(1.0, x, out=x)

    def matmul(self, a, b):
        return a @ b

    def matmul_nt(self, a, b):
        return a @ b.T

    def matmul_tn(self, a, b):
        return a.T @ b

    def outer(self, a, b):
        return np.outer(a, b)

    def rowwise_dot(self, a, b):
        return np.einsum("ij,ij->i", a, b)

    def bmm(self, a, b, out) -> None:
        np.matmul(a, b, out=out)

    def bmm_nt(self, a, b, out) -> None:
        np.matmul(a, b.transpose(0, 2, 1), out=out)

    def bmm_tn(self, a, b, out) -> None:
        np.matmul(a.transpose(0, 2, 1), b, out=out)


#: The shared float32 reference instance (the trainer default).
NUMPY_OPS = NumpyOps()


class TorchOps(ArrayOps):
    """Torch tensors on CPU (parity tier) or CUDA (quality tier).

    On CPU, reduction/transcendental primitives (matmuls, ``exp``) run
    through zero-copy NumPy views of the tensors so the host's BLAS/libm
    produces the same bytes as the NumPy backend; indexing and exact
    elementwise arithmetic run on the tensors.  On CUDA everything runs
    native, asynchronously on the default stream, with plan-constant
    uploads staged on a dedicated copy stream (double buffering).
    """

    kind = "torch"

    def __init__(self, device: str = "cpu", dtype=np.float32) -> None:
        torch = require_torch()
        self.torch = torch
        self.device = torch.device(device)
        self.dtype = np.dtype(dtype)
        self.torch_dtype = (torch.float64 if self.dtype == np.float64
                            else torch.float32)
        if self.device.type == "cuda" and not torch.cuda.is_available():
            raise RuntimeError(
                "torch_device='cuda' requested but torch.cuda.is_available() "
                "is False — use torch_device='cpu' (or 'auto')")
        self.is_cpu = self.device.type == "cpu"
        self._copy_stream = (None if self.is_cpu
                             else torch.cuda.Stream(device=self.device))

    # -- allocation / movement ---------------------------------------- #

    def empty(self, shape):
        return self.torch.empty(shape, dtype=self.torch_dtype,
                                device=self.device)

    def zeros(self, shape):
        return self.torch.zeros(shape, dtype=self.torch_dtype,
                                device=self.device)

    def zeros_like(self, x):
        return self.torch.zeros_like(x)

    def const(self, arr):
        t = self.torch.from_numpy(np.ascontiguousarray(arr))
        return t if self.is_cpu else t.to(self.device, non_blocking=True)

    def mask(self, arr):
        t = self.torch.from_numpy(
            np.ascontiguousarray(arr, dtype=self.dtype))
        return t if self.is_cpu else t.to(self.device, non_blocking=True)

    def upload(self, host):
        host = np.ascontiguousarray(host, dtype=self.dtype)
        t = self.torch.from_numpy(host)
        return t if self.is_cpu else t.to(self.device, non_blocking=True)

    def join(self) -> None:
        if self._copy_stream is not None:
            self.torch.cuda.current_stream(self.device).wait_stream(
                self._copy_stream)

    def download(self, x) -> np.ndarray:
        if self.is_cpu:
            return x.numpy()
        return x.cpu().numpy()

    def clone(self, x):
        return x.clone()

    # -- CPU parity routing --------------------------------------------- #

    @staticmethod
    def _np(x):
        """Zero-copy NumPy view of a CPU tensor (host array passthrough)."""
        return x.numpy() if hasattr(x, "numpy") else x

    def _idx(self, idx):
        """Index operand for native tensor indexing (device long tensor)."""
        if isinstance(idx, np.ndarray):
            t = self.torch.from_numpy(idx)
            return t if self.is_cpu else t.to(self.device, non_blocking=True)
        return idx

    def _idx_np(self, idx):
        """Index operand for host-view indexing (NumPy int64 array)."""
        return idx if isinstance(idx, np.ndarray) else self._np(idx)

    # -- kernels -------------------------------------------------------- #

    def take(self, src, idx, out) -> None:
        if self.is_cpu:
            self._np(src).take(self._idx_np(idx), axis=0,
                               out=self._np(out), mode="clip")
        else:
            flat = self._idx(idx).reshape(-1)
            self.torch.index_select(src, 0, flat,
                                    out=out.view(flat.shape[0], -1))

    def gather(self, src, idx):
        if self.is_cpu:
            return self.torch.from_numpy(
                self._np(src)[self._idx_np(idx)])
        return src[self._idx(idx)]

    def scatter_rows(self, dst, idx, src) -> None:
        if self.is_cpu:
            self._np(dst)[self._idx_np(idx)] = self._np(src)
        else:
            dst[self._idx(idx)] = src

    def index_add(self, dst, rows, src) -> None:
        if self.is_cpu:
            # Same pinned order as NumpyOps (sum per row, one += each).
            rows_np = self._idx_np(rows)
            if not rows_np.size:
                return
            urows, merged = sum_duplicate_rows(rows_np, self._np(src))
            self._np(dst)[urows] += merged
        else:
            # index_add_ accumulates atomically on CUDA: per-row delta
            # *sums* are reproduced, but tie rounding may differ from the
            # host order -- part of the quality tier's contract (the
            # trainer's reconciliation path downloads and merges on host
            # instead, so it never depends on this).
            dst.index_add_(0, self._idx(rows).reshape(-1), src)

    def sub(self, a, b, out) -> None:
        if self.is_cpu:
            np.subtract(self._np(a), self._np(b), out=self._np(out))
        else:
            self.torch.sub(a, b, out=out)

    def sigmoid(self, x):
        if self.is_cpu:
            host = self._np(x)
            return self.torch.from_numpy(
                1.0 / (1.0 + np.exp(-np.clip(host, -6.0, 6.0))))
        return self.torch.sigmoid(self.torch.clamp(x, -6.0, 6.0))

    def sigmoid_(self, x) -> None:
        if self.is_cpu:
            host = self._np(x)
            np.minimum(host, 6.0, out=host)
            np.maximum(host, -6.0, out=host)
            np.negative(host, out=host)
            np.exp(host, out=host)
            host += 1.0
            np.divide(1.0, host, out=host)
        else:
            x.clamp_(-6.0, 6.0)
            x.neg_()
            x.exp_()
            x.add_(1.0)
            x.reciprocal_()

    def matmul(self, a, b):
        if self.is_cpu:
            return self.torch.from_numpy(self._np(a) @ self._np(b))
        return a @ b

    def matmul_nt(self, a, b):
        if self.is_cpu:
            return self.torch.from_numpy(self._np(a) @ self._np(b).T)
        return a @ b.T

    def matmul_tn(self, a, b):
        if self.is_cpu:
            return self.torch.from_numpy(self._np(a).T @ self._np(b))
        return a.T @ b

    def outer(self, a, b):
        if self.is_cpu:
            return self.torch.from_numpy(np.outer(self._np(a), self._np(b)))
        return self.torch.outer(a, b)

    def rowwise_dot(self, a, b):
        if self.is_cpu:
            # Same einsum reduction (and therefore the same bytes) as the
            # NumPy backend -- this is a reduction, so it routes through
            # the host views like the matmuls above.
            return self.torch.from_numpy(
                np.einsum("ij,ij->i", self._np(a), self._np(b)))
        return (a * b).sum(dim=1)

    def bmm(self, a, b, out) -> None:
        if self.is_cpu:
            np.matmul(self._np(a), self._np(b), out=self._np(out))
        else:
            self.torch.bmm(a, b, out=out)

    def bmm_nt(self, a, b, out) -> None:
        if self.is_cpu:
            np.matmul(self._np(a), self._np(b).transpose(0, 2, 1),
                      out=self._np(out))
        else:
            self.torch.bmm(a, b.transpose(1, 2), out=out)

    def bmm_tn(self, a, b, out) -> None:
        if self.is_cpu:
            np.matmul(self._np(a).transpose(0, 2, 1), self._np(b),
                      out=self._np(out))
        else:
            self.torch.bmm(a.transpose(1, 2), b, out=out)


def resolve_ops(config: Optional[object]) -> ArrayOps:
    """The :class:`ArrayOps` a learner runs under, from its TrainConfig.

    Duck-typed on ``backend`` / ``resolved_torch_device`` /
    ``resolved_torch_dtype`` so this module never imports
    :mod:`repro.embedding.model` (the config module imports *us* for the
    eager availability check).  Anything that is not the torch backend --
    including ``None`` -- gets the shared float32 NumPy reference.
    """
    if config is None or getattr(config, "backend", None) != "torch":
        return NUMPY_OPS
    device = config.resolved_torch_device()
    dtype = (np.float64 if config.resolved_torch_dtype() == "float64"
             else np.float32)
    return TorchOps(device=device, dtype=dtype)
