"""Batched Skip-Gram learners: what the trainer runs for SGNS, Pword2vec
and DSGL.

All three run one step kernel: gather a step's context rows and output
rows, score ``ctx @ outs.T``, form the gradient ``(labels - sigmoid) *
lr``, add ``grad @ outs`` and ``grad.T @ ctx`` to the pre-update blocks
and scatter them back, the last write winning for a repeated row.  On
the shared float32 ``NUMPY_OPS`` with the compiled library loaded the
step's exact lanes run in C (``dsgl_step.c``) around NumPy's three GEMMs
and its ``exp``; elsewhere every primitive goes through ``ops``
(:func:`_step_ops`).  Window layouts, row indices and the whole negative
pool are precomputed as flat arrays per plan.

The parity target is the per-window reference learners in
``tests/oracles/embedding.py`` (the trainer analogue of the walk
engine's loop/lock-step parity): both feed the same counter-based
negative streams through
:meth:`repro.embedding.negative.NegativeSampler.sample_rows_stream`, and
a stacked ``(1, m, d)`` product gives the bytes of the 2-D product at
the same ``m``, so the final embeddings agree to the last bit --
``tests/test_embedding_vectorized_parity.py`` pins this down at
``atol=1e-10`` (far below float32 resolution).

SGD is order-sensitive, so SGNS stays a per-pair update (its level-1
structure is the baseline being measured: the original word2vec
formulation, Fig. 3(a)) and Pword2vec a per-window update (one negative
set shared by a window's contexts, Fig. 3(b), Ji et al. [22]): each
window or pair is one step of width 1 on the replica matrices
(:class:`_WindowLearner`), run in corpus order.

DSGL goes further.  In the real system (§4.2, Fig. 4) the lifetimes --
``multi_windows``-walk chunks with private local buffers -- are processed
by *parallel threads* whose lock-free updates race on the global matrices.
The trainer executes that concurrency model deterministically:
``TrainConfig.dsgl_threads`` lifetimes form a
*cohort* (the simulated thread pool), every lifetime of a cohort gathers
its buffers from the cohort-start matrices, lifetimes are mutually
independent while they run (their batches stay strictly sequential
*within* each lifetime -- Improvement-II, multi-window shared negatives,
is untouched), and at cohort end each row receives the **sum of the
per-lifetime deltas** (the same delta-sum rule :mod:`repro.embedding.sync`
applies across machines -- Improvement-III -- here applied across
threads); cohorts are sequential, bounding staleness the way a bounded
thread count does on real hardware.  Independence is what the lock-step
execution exploits: all lifetimes of a cohort advance together, so one
step processes every lifetime's current multi-window batch as a single
stacked ``(chunks, ctx, dim) @ (chunks, dim, outs)`` matrix
multiplication (Improvement-I's local buffers are the gathered blocks).
The machines' slices of one sync round are replica-disjoint with rates
fixed up front, so the serial trainer widens the lock-step further:
cohort *j* of every machine shares one plan
(:meth:`VectorizedDSGLLearner.train_round`), while ``dsgl_threads`` keeps
bounding the lifetimes *per replica*.  The reference executes the *same*
plans one lifetime at a time through the same step kernel, which keeps
the two bit-identical while leaving the per-lifetime reference honestly
sequential.

Every array primitive in this module flows through the
:mod:`repro.embedding.ops` seam: :class:`~repro.embedding.ops.NumpyOps`
(the default) wraps the original calls one-for-one, so the float32 NumPy
path is byte-identical to the pre-seam trainer, while
:class:`~repro.embedding.ops.TorchOps` runs the same plans on torch
tensors (``TrainConfig.backend="torch"``) -- byte-equal on CPU, golden
AUC-gated on CUDA.  Plans themselves stay NumPy (device-agnostic slice
descriptors); only the gathered buffers and plan constants are adopted
per device via :meth:`DSGLSlicePlan.bind`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import native
from repro.embedding.ops import (
    NUMPY_OPS,
    ArrayOps,
    DuplicateRowSum,
    sum_duplicate_rows,
)
from repro.embedding.sgns import BaseLearner

__all__ = [
    "VectorizedDSGLLearner",
    "VectorizedPword2vecLearner",
    "VectorizedSGNSLearner",
    "window_context_layout",
]


def window_context_layout(length: int, window: int) -> Tuple[np.ndarray, np.ndarray]:
    """Flat context layout of every window of a length-``length`` walk.

    Returns ``(positions, sizes)``: ``sizes[t]`` is the context size of the
    window at position ``t`` and ``positions`` indexes into the walk,
    concatenating every window's contexts in walk order -- left neighbours
    then right, exactly the order ``iter_windows`` materialises them in.
    """
    t = np.arange(length, dtype=np.int64)
    lo = np.maximum(0, t - window)
    hi = np.minimum(length, t + window + 1)
    left = t - lo
    right = hi - t - 1
    # Two segments per window (left of the target, right of the target).
    starts = np.empty(2 * length, dtype=np.int64)
    lengths = np.empty(2 * length, dtype=np.int64)
    starts[0::2] = lo
    lengths[0::2] = left
    starts[1::2] = t + 1
    lengths[1::2] = right
    total = int(lengths.sum())
    offsets = np.zeros(2 * length, dtype=np.int64)
    np.cumsum(lengths[:-1], out=offsets[1:])
    positions = (np.arange(total, dtype=np.int64)
                 - np.repeat(offsets, lengths) + np.repeat(starts, lengths))
    return positions, left + right


#: Most steps one window plan holds: its step tensors stay a few MB.
_WINDOW_PLAN_STEPS = 2048


class _WindowLearner(BaseLearner):
    """Per-window SGD on the DSGL step kernel (SGNS and Pword2vec).

    Every window -- or, with ``per_pair``, every ``(context, target)``
    pair -- is one step of width 1: its ``m`` context rows and its output
    rows ``[target, k negatives]`` index the replica matrices directly, so
    there is no local buffer, no padding lane and no write-back.  Steps
    are grouped by ``m``, each group binding the step kernels once, and
    run one at a time in corpus order (SGD is order-sensitive): each
    updates both blocks from their pre-update copies, and a row repeated
    within a step keeps its last lane's write.  A plan covers whole walks
    with at most ``_WINDOW_PLAN_STEPS`` steps between them (or one walk).
    """

    per_pair = False

    def train_walks(self, walks: Sequence[np.ndarray], lr: float) -> int:
        phi_in, phi_out = self._adopt()
        per_token = 2 * self.config.window if self.per_pair else 1
        chunk, steps = [], 0
        for walk in walks:
            if walk.size < 2:                  # a walk of one has no window
                continue
            size = walk.size * min(walk.size - 1, per_token)  # steps, at most
            if chunk and steps + size > _WINDOW_PLAN_STEPS:
                self._train_plan(chunk, phi_in, phi_out, lr)
                chunk, steps = [], 0
            chunk.append(walk)
            steps += size
        if chunk:
            self._train_plan(chunk, phi_in, phi_out, lr)
        self._publish(phi_in, phi_out)
        return sum(int(walk.size) for walk in walks)

    def _train_plan(self, walks, phi_in, phi_out, lr: float) -> None:
        """Train ``walks``, each of two tokens or more, as one plan."""
        layouts = [window_context_layout(walk.size, self.config.window)
                   for walk in walks]
        rows = self._rows(np.concatenate(walks))
        bases = np.cumsum([0] + [walk.size for walk in walks[:-1]]).tolist()
        contexts = rows[np.concatenate(
            [layout[0] + base for layout, base in zip(layouts, bases)])]
        sizes = np.concatenate([layout[1] for layout in layouts])
        targets = rows
        if self.per_pair:
            targets = np.repeat(rows, sizes)
            sizes = np.ones_like(targets)
        # One pooled draw: step s's negatives are the reference's s-th draw.
        k = self.config.negatives
        outs = np.column_stack(
            [targets, self._negatives(k * sizes.size).reshape(-1, k)])
        # Group the steps by context count, in corpus order within each.
        starts = _exclusive_cumsum(sizes)[:-1]
        order = np.argsort(sizes, kind="stable")
        widths, firsts = np.unique(sizes[order], return_index=True)
        group = np.searchsorted(widths, sizes)
        index = np.empty_like(order)            # each step's row in its group
        index[order] = np.arange(order.size)
        index -= firsts[group]
        steps = [self._bind_steps(
                     phi_in, phi_out,
                     contexts[starts[members][:, None] + np.arange(m)],
                     outs[members], lr)
                 for m, members in zip(widths.tolist(),
                                       np.split(order, firsts[1:]))]
        for g, j in zip(group.tolist(), index.tolist()):
            steps[g](j)

    def _bind_steps(self, phi_in, phi_out, cidx, oidx, lr: float):
        """Step ``j`` of one group of ``m``-context steps, as a callable of
        ``j``: the compiled lanes around NumPy's GEMMs and ``exp`` on the
        shared ``NUMPY_OPS`` with the library loaded, else
        :func:`_step_ops`."""
        ops = self.ops
        (n, m), b, d = cidx.shape, oidx.shape[1], phi_in.shape[1]
        labels = np.zeros((n, m, b), dtype=np.float32)
        labels[:, :, 0] = 1.0
        mask = np.ones_like(labels)
        rate = ops.upload(np.full((1, 1, 1), lr))
        work = [ops.empty((1,) + shape) for shape in
                ((m, d), (b, d), (m, b), (m, b), (m, d), (b, d))]
        if ops is not NUMPY_OPS or native.load() is None:
            cidx, oidx = ops.const(cidx), ops.const(oidx)
            labels, mask = ops.mask(labels), ops.mask(mask)
            ops.join()      # compute must see the staged constant uploads
            return lambda j: _step_ops(
                ops, phi_in, phi_out, cidx[j:j + 1], oidx[j:j + 1],
                labels[j:j + 1], mask[j:j + 1], rate, work)
        c_vecs, o_vecs, grad, _, c_delta, o_delta = work
        gather, pre_exp, post_exp, add_scatter = native.step_lanes(
            range(n + 1), m, b, cidx, oidx, labels, mask, rate, phi_in,
            phi_out, (c_vecs, o_vecs, grad, c_delta, o_delta))
        matmul, exp = np.matmul, np.exp
        o_vecs_t, grad_t = o_vecs.transpose(0, 2, 1), grad.transpose(0, 2, 1)

        # The kernels hold raw pointers: the default keeps their arrays
        # alive as long as the step is.
        def step(j, _alive=(cidx, oidx, labels, mask, rate, work)):
            gather(j, j + 1)
            matmul(c_vecs, o_vecs_t, out=grad)
            pre_exp(j, j + 1)
            exp(grad, out=grad)
            post_exp(j, j + 1)
            matmul(grad, o_vecs, out=c_delta)
            matmul(grad_t, c_vecs, out=o_delta)
            add_scatter(j, j + 1)
        return step


class VectorizedSGNSLearner(_WindowLearner):
    """SGNS, the original word2vec (Fig. 3(a)): one step per
    ``(context, target)`` pair, each with its own negatives."""

    name = "sgns"
    per_pair = True


class VectorizedPword2vecLearner(_WindowLearner):
    """Pword2vec [22] (Fig. 3(b)): one step per window, its contexts
    sharing one negative set."""

    name = "pword2vec"


# --------------------------------------------------------------------- #
# DSGL: concurrent-lifetime slice plan (shared with the reference)
# --------------------------------------------------------------------- #

#: One machine's share of a lock-step plan: ``(learner, walks, lr)``.
DSGLGroup = Tuple[BaseLearner, Sequence[np.ndarray], float]


class DSGLSlicePlan:
    """Precomputed schedule of one lock-step cohort of DSGL lifetimes.

    A plan covers cohort *j* of every *group* it was built from -- one
    group per machine of a sync round (§4.2/Fig. 4: the deterministic
    stand-in for one sync period's worth of parallel thread work).  The
    groups' replicas are disjoint and their learning rates are fixed
    before any slice runs, so their lifetimes can share one lock-step
    schedule; everything order-sensitive stays per group.  The plan owns:

    * ``groups``: the ``(learner, lr)`` of every group that holds a
      trainable window, in group order -- the replica coordinate -- and
      ``cohort``, its index within the slice (for error messages);
    * the concatenated per-lifetime local-buffer row sets
      ``ctx_gather``/``out_gather`` in original (group-major) lifetime
      order; ``ctx_bounds``/``out_bounds`` cut them per group -- the
      replica coordinate of the gather and of the delta-merge writeback;
    * **step-major, ragged** step tensors: lifetimes are ordered by
      descending step count, so step ``t``'s active set is the prefix
      ``[0, c_t)`` and its block is the contiguous row range
      ``step_offsets[t]:step_offsets[t + 1]`` of ``cidx`` (gather/scatter
      rows into the context buffer), ``oidx`` (output buffer),
      ``labels`` and ``mask`` -- no padding for finished lifetimes;
    * ``labels`` (1.0 where a context row meets its own window's target)
      and ``mask`` (1.0 on valid ``(context, output)`` lanes), both
      learning-rate-free, so a step's gradient is
      ``(labels - scores) * lr * mask``; padded lanes index a scratch row
      that the mask keeps at zero;
    * ``lr``: the per-lifetime learning-rate column, in execution order;
    * the **write-back merge structure** of each buffer
      (``ctx_merge``/``out_merge``): a
      :class:`~repro.embedding.ops.DuplicateRowSum` over the
      ``(replica, row)`` key of every buffer row, built here, at plan
      time -- planning never reads φ and runs ahead of the write-back --
      plus, per replica, its destination rows and where they sit in the
      merged block (``ctx_dest``/``out_dest``).

    Negative pools are drawn per group stream and deltas merged per
    replica, both in *original* lifetime order, keeping the stream
    consumption and the writeback arithmetic independent of how many
    groups share the plan: the buffers are group-major and the merge
    structure's sort is stable, so a contested row's deltas are summed as
    ``d1 + (d2 + ... + dk)`` over its own replica's lifetimes in
    original order (NumPy's pairwise ``reduceat`` association past eight
    contributors) -- exactly what the run-time :func:`merge_deltas` of
    the loop reference computes one replica at a time.  Step tensors are
    padded to the *structural* maxima
    ``(multi_windows·2·window, multi_windows+negatives)``, so a plan
    covering a single lifetime runs the exact same matrix shapes as a
    whole-round plan -- the loop reference exploits this by planning one
    lifetime at a time and still matching the lock-step executor bit for
    bit.
    """

    __slots__ = (
        "num_steps", "m_max", "b_max", "groups", "cohort",
        "ctx_gather", "out_gather", "ctx_bounds", "out_bounds",
        "ctx_merge", "out_merge", "ctx_dest", "out_dest",
        "cidx", "oidx", "labels", "mask", "lr", "step_offsets",
        "_buffers", "_bound",
    )

    # ------------------------------------------------------------------ #

    def bind(self, ops: ArrayOps = NUMPY_OPS) -> None:
        """Adopt the plan's constant tensors on ``ops``'s device, in place.

        The index tensors, labels, masks and learning rates never depend
        on the model matrices, so a device backend can stage their
        uploads (non-blocking transfers inside ``const``/``mask``/``upload``,
        joined before compute) while the *previous* cohort's
        kernels are still queued -- the double-buffered half of the slice
        upload.  On the NumPy backend every call is an identity, except
        that the float64 learning rates meet the buffer dtype here (the
        same rounding a Python-float multiply applies).
        """
        self.cidx = ops.const(self.cidx)
        self.oidx = ops.const(self.oidx)
        self.labels = ops.mask(self.labels)
        self.mask = ops.mask(self.mask)
        self.lr = ops.upload(self.lr)
        self._bound = True

    def gather(self, ops: ArrayOps = NUMPY_OPS):
        """Cohort-start local buffers of every lifetime, plus a zero
        scratch row at the end (index ``len(ctx_gather)``/``len(out_gather)``).

        The host-side gather reads each group's rows from its own
        replica's float32 matrices straight into the step buffer (the
        rows were range-checked when the plan was built, so ``take``
        runs unbuffered); ``ops`` then adopts the blocks (identity on
        NumPy, upload on a device backend -- the phi-dependent half of
        the slice upload, which cannot start before the previous
        cohort's writeback).
        """
        first = self.groups[0][0].model
        d = first.phi_in.shape[1]
        ctx_host = np.empty((self.ctx_gather.size + 1, d),
                            dtype=first.phi_in.dtype)
        out_host = np.empty((self.out_gather.size + 1, d),
                            dtype=first.phi_out.dtype)
        for g, (learner, _lr) in enumerate(self.groups):
            model = learner.model
            lo, hi = self.ctx_bounds[g:g + 2]
            np.take(model.phi_in, self.ctx_gather[lo:hi], axis=0,
                    out=ctx_host[lo:hi], mode="clip")
            lo, hi = self.out_bounds[g:g + 2]
            np.take(model.phi_out, self.out_gather[lo:hi], axis=0,
                    out=out_host[lo:hi], mode="clip")
        ctx_host[-1] = 0.0
        out_host[-1] = 0.0
        if not self._bound:
            self.bind(ops)
        ctx_mega = ops.upload(ctx_host)
        out_mega = ops.upload(out_host)
        # Reusable step workspaces, sized for the widest step: the step
        # kernel writes into views of these instead of allocating.
        c_top = self.step_offsets[1]
        self._buffers = (
            ops.empty((c_top, self.m_max, d)),
            ops.empty((c_top, self.b_max, d)),
            ops.empty((c_top, self.m_max, self.b_max)),
            ops.empty((c_top, self.m_max, self.b_max)),
            ops.empty((c_top, self.m_max, d)),
            ops.empty((c_top, self.b_max, d)),
        )
        ops.join()  # compute must see the staged constant uploads
        return ctx_mega, ops.clone(ctx_mega), out_mega, ops.clone(out_mega)

    def run_steps(self, ctx_mega, out_mega, ops: ArrayOps = NUMPY_OPS) -> None:
        """Every lock-step batch update of the plan, first to last.

        The shared step kernel: the per-lifetime reference runs it on
        one-lifetime plans, the lock-step learner on whole-round plans.  Per-slice
        matmul results are identical either way (the stacked form loops
        the same GEMM over slices), which is what makes the executors
        bit-equal.  On the shared float32 :data:`NUMPY_OPS` with the
        compiled library loaded, the exact lanes of each step run in C
        (:meth:`_run_lanes`); otherwise every primitive flows through
        ``ops``, bound once per plan -- the reference and the fallback.
        The workspace views are re-cut only when the active prefix
        shrinks.
        """
        if ops is NUMPY_OPS and native.load() is not None:
            self._run_lanes(ctx_mega, out_mega)
        else:
            self._run_ops(ctx_mega, out_mega, ops)
        # A plan runs once.  Its step tensors and workspaces are dead
        # now, and the next cohort is planned before this one's
        # writeback: dropping them keeps two plans' worth off the peak.
        self.cidx = self.oidx = self.labels = self.mask = None
        self._buffers = None

    def _run_ops(self, ctx_mega, out_mega, ops: ArrayOps) -> None:
        """The ``ArrayOps`` step loop: the reference and the fallback."""
        offsets = self.step_offsets
        width = 0
        for t in range(self.num_steps):
            lo, hi = offsets[t], offsets[t + 1]
            if hi - lo != width:
                width = hi - lo
                work = [buf[:width] for buf in self._buffers]
                lr = self.lr[:width]
            _step_ops(ops, ctx_mega, out_mega, self.cidx[lo:hi],
                      self.oidx[lo:hi], self.labels[lo:hi],
                      self.mask[lo:hi], lr, work)

    def _run_lanes(self, ctx_mega, out_mega) -> None:
        """:meth:`_run_ops` on ``NUMPY_OPS`` in eight calls a step: C
        gathers both blocks, clips and negates the scores, turns the
        exponentials into the masked, rate-scaled gradient (in the scores
        buffer) and adds-and-scatters both blocks, in lane order; the three
        GEMMs and the ``exp`` -- BLAS's and NumPy's own accumulation and
        polynomial, which C cannot reproduce -- stay the same NumPy calls
        on the same operands."""
        work = self._buffers[:3] + self._buffers[4:]   # grad is the scores
        gather, pre_exp, post_exp, add_scatter = native.step_lanes(
            self.step_offsets, self.m_max, self.b_max, self.cidx, self.oidx,
            self.labels, self.mask, self.lr, ctx_mega, out_mega, work)
        matmul, exp = np.matmul, np.exp
        offsets = self.step_offsets
        width = 0
        for t in range(self.num_steps):
            lo, hi = offsets[t], offsets[t + 1]
            if hi - lo != width:
                width = hi - lo
                c_vecs, o_vecs, grad, c_delta, o_delta = [
                    buf[:width] for buf in work]
                o_vecs_t, grad_t = (o_vecs.transpose(0, 2, 1),
                                    grad.transpose(0, 2, 1))
            gather(lo, hi)
            matmul(c_vecs, o_vecs_t, out=grad)
            pre_exp(lo, hi)
            exp(grad, out=grad)
            post_exp(lo, hi)
            matmul(grad, o_vecs, out=c_delta)
            matmul(grad_t, c_vecs, out=o_delta)
            add_scatter(lo, hi)

    def apply_writeback(self, ctx_mega, ctx_start, out_mega, out_start,
                        ops: ArrayOps = NUMPY_OPS) -> None:
        """Delta-sum every lifetime's buffer back into its group's replica.

        Subtract, reduce, one ``+=`` per replica.  Deltas are downloaded
        to the host first (a view on CPU backends, the device→host sync
        point on CUDA) and reduced through the plan-time
        :class:`~repro.embedding.ops.DuplicateRowSum` -- the routine
        behind :func:`merge_deltas` -- so reconciliation arithmetic,
        duplicate-row accumulation order included, is identical across
        backends and across group counts.  A non-finite merged block is
        refused before any replica sees it (:meth:`_diverged`).
        """
        ctx_mega -= ctx_start        # buffers are dead after the writeback
        out_mega -= out_start
        blocks = []
        for name, merge, dest, deltas in (
                ("phi_in", self.ctx_merge, self.ctx_dest, ctx_mega),
                ("phi_out", self.out_merge, self.out_dest, out_mega)):
            merged = merge.reduce(ops.download(deltas))
            if not np.isfinite(merged).all():
                raise self._diverged(name, dest, merged)
            blocks.append((name, dest, merged))
        for name, dest, merged in blocks:
            for (learner, _lr), (rows, at) in zip(self.groups, dest):
                getattr(learner.model, name)[rows] += merged.take(at, axis=0)

    def _diverged(self, matrix: str, dest, merged) -> FloatingPointError:
        """The error for a write-back that would add a non-finite delta.

        Raised by the cohort that produced it, before any replica is
        poisoned and the next sync spreads it: it names the machine, the
        rate, the cohort of the slice and the lowest offending row.
        """
        bad = ~np.isfinite(merged).all(axis=1)
        for (learner, lr), (rows, at) in zip(self.groups, dest):
            hit = rows[bad[at]]
            if hit.size:
                break
        row = int(hit.min())
        node = int(learner.model.vocab.row_to_node[row])
        return FloatingPointError(
            f"training diverged: learner {learner.name!r} on machine "
            f"{learner.machine} at lr={lr!r}, cohort {self.cohort}: "
            f"non-finite {matrix} delta, first row {row} (node {node}); "
            f"lower lr")


def _step_ops(ops: ArrayOps, ctx_mega, out_mega, cidx, oidx, labels,
              mask, lr, work) -> None:
    """One step through ``ops``: both blocks gathered, scored and
    scattered back with their updates, in place.  ``cidx``/``oidx`` hold
    the step's ``(C, M)``/``(C, B)`` rows, ``labels``/``mask`` its
    ``(C, M, B)`` lanes, ``lr`` its ``(C, 1, 1)`` rates and ``work`` the
    ``(ctx_vecs, out_vecs, scores, grad, ctx_delta, out_delta)`` blocks
    cut to width ``C``."""
    ctx_vecs, out_vecs, scores, grad, ctx_delta, out_delta = work
    ops.take(ctx_mega, cidx, ctx_vecs)               # (C, M, d)
    ops.take(out_mega, oidx, out_vecs)               # (C, B, d)
    ops.bmm_nt(ctx_vecs, out_vecs, scores)           # (C, M, B)
    ops.sigmoid_(scores)
    ops.sub(labels, scores, grad)
    grad *= lr
    # Zero the padding lanes so scratch-row garbage never leaks into a
    # valid row (and the scratch row itself stays zero: its updates
    # reduce to scratch + 0).  Valid lanes multiply by 1.0 -- exact.
    grad *= mask
    ops.bmm(grad, out_vecs, ctx_delta)
    ops.bmm_tn(grad, ctx_vecs, out_delta)
    ctx_vecs += ctx_delta
    out_vecs += out_delta
    ops.scatter_rows(ctx_mega, cidx, ctx_vecs)
    ops.scatter_rows(out_mega, oidx, out_vecs)


def merge_deltas(phi: np.ndarray, rows: np.ndarray,
                 deltas: np.ndarray) -> None:
    """``phi[row] += Σ_lifetimes delta`` for concatenated lifetime deltas.

    ``rows``/``deltas`` concatenate every lifetime's buffer rows in
    original lifetime order -- the thread-level analogue of the
    cross-machine delta reconciliation in :mod:`repro.embedding.sync`.

    The run-time form of the write-back: it builds the merge structure
    from ``rows`` on the spot and reduces through it
    (:func:`repro.embedding.ops.sum_duplicate_rows`: a contested row's
    deltas summed as ``d1 + (d2 + ... + dk)`` in lifetime order, one
    ``+=`` per row).  The loop reference calls it per cohort; the
    lock-step plans build the same structure at plan time and every CPU
    backend's ``index_add`` calls the same routine, so ties reconcile
    identically everywhere.
    """
    urows, merged = sum_duplicate_rows(rows, deltas)
    phi[urows] += merged


def _chunk_ranks(values: np.ndarray, segment_of: np.ndarray,
                 num_segments: int):
    """Per-segment sorted-unique values and each element's global slot.

    One sort over the whole slice replaces a per-chunk ``np.unique`` +
    ``searchsorted`` pair: ``uniques`` concatenates every segment's
    sorted unique values (the lifetime buffer layout) and ``slots[i]`` is
    element ``i``'s row in that concatenation.  The sort key packs
    ``(segment, value)`` into one integer -- equal keys are equal pairs,
    so the (unstable, much faster) single-key sort loses nothing.
    """
    order = np.argsort(segment_of * (int(values.max()) + 1) + values)
    sv = values[order]
    sc = segment_of[order]
    new = np.empty(values.size, dtype=bool)
    new[0] = True
    new[1:] = (sv[1:] != sv[:-1]) | (sc[1:] != sc[:-1])
    gid = np.cumsum(new) - 1
    slots = np.empty(values.size, dtype=np.int64)
    slots[order] = gid
    return sv[new], np.bincount(sc[new], minlength=num_segments), slots


def _exclusive_cumsum(values: np.ndarray) -> np.ndarray:
    """``[0, v0, v0+v1, ..., Σv]`` (one entry longer than ``values``)."""
    out = np.zeros(values.size + 1, dtype=np.int64)
    np.cumsum(values, out=out[1:])
    return out


def _replica_merge(gather: np.ndarray, bounds: List[int], vocab_rows: int):
    """Plan-time half of one buffer's write-back.

    ``gather`` concatenates the lifetimes' buffer rows group-major and
    ``bounds`` cuts it per replica.  Returns the
    :class:`~repro.embedding.ops.DuplicateRowSum` over the
    ``(replica, row)`` keys -- one structure for every replica of the
    plan, each key's contributors in original lifetime order because the
    sort is stable -- and, per replica, ``(rows, at)``: its destination
    rows and their positions in the merged block.  The range check here
    is what lets :meth:`DSGLSlicePlan.gather` run an unchecked ``take``.
    """
    if gather.min() < 0 or gather.max() >= vocab_rows:
        raise IndexError("DSGL plan gathers rows outside the model matrices")
    replica_of_row = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
    merge = DuplicateRowSum(replica_of_row * vocab_rows + gather)
    replica, rows = np.divmod(merge.rows, vocab_rows)
    at = np.argsort(replica, kind="stable")
    cuts = np.searchsorted(replica[at], np.arange(len(bounds))).tolist()
    rows = rows[at]
    return merge, [(rows[lo:hi], at[lo:hi])
                   for lo, hi in zip(cuts[:-1], cuts[1:])]


def plan_dsgl_slice(
    groups: Sequence[DSGLGroup],
) -> Tuple[List[int], Optional["DSGLSlicePlan"]]:
    """Build the lock-step plan for one cohort of every group's walks.

    Each group is ``(learner, walks, lr)``: one machine's cohort, the
    learner naming its replica and negative stream.  Negative pools are
    drawn from each group's stream in original chunk order, so every
    caller -- a whole round's groups, one slice worker's single group,
    the loop reference's single lifetime -- consumes identical
    randomness.  A group whose walks hold no trainable window still
    draws its pool and then stays out of the plan (its replica sees no
    writeback), exactly as when it is planned alone.  Construction is
    itself vectorized over the whole cohort -- window grids, buffer
    slots, batch offsets and label coordinates are all plan-global array
    computations; no per-chunk schedule objects exist.  Returns
    ``(tokens_per_group, plan)``; ``plan`` is ``None`` when no group
    holds a trainable window.
    """
    cfg = groups[0][0].config
    k, group, window = cfg.negatives, cfg.multi_windows, cfg.window
    layout_cache = groups[0][0].__dict__.setdefault("_window_layout_cache",
                                                    {})

    # Per group: draw the negative pool, row-map the walks.  Everything is
    # appended group-major, which is original lifetime order.
    tokens: List[int] = []
    planned, size_parts, tok_parts, pool_parts = [], [], [], []
    for learner, walks, lr in groups:
        sizes = np.fromiter((w.size for w in walks), dtype=np.int64,
                            count=len(walks))
        group_tokens = int(sizes.sum())
        tokens.append(group_tokens)
        if group_tokens == 0:
            continue
        # One pooled negative draw (counter-based draws are invariant to
        # batching, so the per-chunk split equals per-chunk draws).
        pool = learner._negatives(k * group_tokens)
        if sizes.max() < 2:
            continue                   # no walk with a window
        planned.append((learner, lr))
        size_parts.append(sizes)
        tok_parts.append(learner._rows(np.concatenate(walks)))
        pool_parts.append(pool)
    if not planned:
        return tokens, None
    tok = np.concatenate(tok_parts)
    pool = np.concatenate(pool_parts)
    group_lr = np.asarray([lr for _, lr in planned], dtype=np.float64)
    vocab_rows = planned[0][0].model.phi_in.shape[0]
    plan = DSGLSlicePlan()
    plan._bound = False
    plan.groups = planned
    plan.cohort = 0
    plan.m_max = m_max = group * 2 * window
    plan.b_max = b_max = group + k
    if native.load() is not None:
        ((plan.ctx_gather, plan.ctx_bounds, ctx_merge, plan.ctx_dest),
         (plan.out_gather, plan.out_bounds, out_merge, plan.out_dest)), \
            plan.step_offsets, plan.lr, plan.cidx, plan.oidx, plan.labels, \
            plan.mask = native.plan_slice(
                tok, pool, np.concatenate(size_parts),
                np.asarray([part.size for part in size_parts],
                           dtype=np.int64),
                group_lr, vocab_rows, k, group, window)
        plan.num_steps = len(plan.step_offsets) - 1
        plan.ctx_merge = DuplicateRowSum.from_layout(*ctx_merge)
        plan.out_merge = DuplicateRowSum.from_layout(*out_merge)
        return tokens, plan

    # The NumPy planner (the compiled half's reference and fallback):
    # split groups into lifetime chunks, index walks with >= 2 tokens.
    group_chunks, chunk_size_parts = [], []
    wl_len_parts, wl_chunk_parts, wl_base_parts = [], [], []
    n_chunks = n_tokens = 0
    for sizes in size_parts:
        eligible = np.flatnonzero(sizes > 1)
        per_chunk = np.add.reduceat(sizes, np.arange(0, sizes.size, group))
        kept = per_chunk > 0                       # empty chunks vanish
        chunk_of_walk = (np.cumsum(kept) - 1)[np.arange(sizes.size) // group]
        group_chunks.append(int(kept.sum()))
        chunk_size_parts.append(per_chunk[kept])
        wl_len_parts.append(sizes[eligible])
        wl_chunk_parts.append(chunk_of_walk[eligible] + n_chunks)
        wl_base_parts.append(
            (np.cumsum(sizes) - sizes)[eligible] + n_tokens)
        n_chunks += group_chunks[-1]
        n_tokens += int(sizes.sum())
    chunk_sizes = np.concatenate(chunk_size_parts)
    chunks_per_group = np.asarray(group_chunks, dtype=np.int64)
    wl_len_arr = np.concatenate(wl_len_parts)
    wl_chunk_arr = np.concatenate(wl_chunk_parts)
    wl_base_arr = np.concatenate(wl_base_parts)
    chunk_steps = np.zeros(n_chunks, dtype=np.int64)
    np.maximum.at(chunk_steps, wl_chunk_arr, wl_len_arr)
    plan.num_steps = int(chunk_steps.max())
    group_starts = _exclusive_cumsum(chunks_per_group)[:-1]
    poff = _exclusive_cumsum(chunk_sizes * k)

    # Plan-global buffer layout: one sort pass assigns every token (and
    # pool entry) its slot in the concatenation of per-lifetime sorted
    # unique row sets -- replacing a per-chunk unique+searchsorted pair.
    tok_chunk = np.repeat(np.arange(n_chunks), chunk_sizes)
    ctx_gather, ctx_counts, ctx_slots = _chunk_ranks(tok, tok_chunk,
                                                     n_chunks)
    ext = np.concatenate([tok, pool])
    ext_chunk = np.concatenate(
        [tok_chunk, np.repeat(np.arange(n_chunks), chunk_sizes * k)])
    out_gather, out_counts, ext_slots = _chunk_ranks(ext, ext_chunk,
                                                     n_chunks)
    tgt_slots = ext_slots[:tok.size]
    neg_slots = ext_slots[tok.size:]

    wl_len = wl_len_arr.tolist()
    n_walks = len(wl_len)
    wl_layout: List[Tuple[np.ndarray, np.ndarray]] = []
    for length in wl_len:
        layout = layout_cache.get(length)
        if layout is None:
            layout = layout_cache[length] = window_context_layout(length,
                                                                  window)
        wl_layout.append(layout)

    plan.ctx_gather = ctx_gather
    plan.out_gather = out_gather
    plan.ctx_bounds = _exclusive_cumsum(
        np.add.reduceat(ctx_counts, group_starts)).tolist()
    plan.out_bounds = _exclusive_cumsum(
        np.add.reduceat(out_counts, group_starts)).tolist()
    plan.ctx_merge, plan.ctx_dest = _replica_merge(
        ctx_gather, plan.ctx_bounds, vocab_rows)
    plan.out_merge, plan.out_dest = _replica_merge(
        out_gather, plan.out_bounds, vocab_rows)
    ctx_size, out_size = int(ctx_gather.size), int(out_gather.size)

    # Execution order: descending step count, so the lock-step executor's
    # active lifetimes at step t are always the prefix [0, c_t) and the
    # step-major tensors need no padding for finished lifetimes: slot
    # (t, position) lives at row step_offsets[t] + position.
    exec_order = np.argsort(-chunk_steps, kind="stable")
    cpos_of_chunk = np.empty(n_chunks, dtype=np.int64)
    cpos_of_chunk[exec_order] = np.arange(n_chunks)
    steps_sorted = chunk_steps[exec_order]
    num_steps = plan.num_steps
    active_counts = (steps_sorted[None, :]
                     > np.arange(num_steps)[:, None]).sum(axis=1)
    step_off = _exclusive_cumsum(active_counts)
    n_slots = int(step_off[-1])
    plan.step_offsets = step_off.tolist()
    plan.lr = np.repeat(group_lr, chunks_per_group)[exec_order].reshape(
        -1, 1, 1)

    # Window grids: one column per eligible walk (chunk-major), one row
    # per lock-step batch.  Grouped cumsums along the walk axis give each
    # window its within-batch row offset and label column.
    t_rows = np.arange(num_steps, dtype=np.int64)[:, None]
    valid = t_rows < wl_len_arr[None, :]                   # (T, W)
    size_grid = np.zeros((num_steps, n_walks), dtype=np.int64)
    for j in range(n_walks):
        size_grid[:wl_len[j], j] = wl_layout[j][1]
    first_col = np.full(n_chunks, n_walks, dtype=np.int64)
    np.minimum.at(first_col, wl_chunk_arr,
                  np.arange(n_walks, dtype=np.int64))
    padded = np.zeros((num_steps, n_walks + 1), dtype=np.int64)
    np.cumsum(size_grid, axis=1, out=padded[:, 1:])
    woff_grid = padded[:, :-1] - padded[:, first_col[wl_chunk_arr]]
    padded_v = np.zeros((num_steps, n_walks + 1), dtype=np.int64)
    np.cumsum(valid, axis=1, out=padded_v[:, 1:])
    ord_grid = padded_v[:, :-1] - padded_v[:, first_col[wl_chunk_arr]]

    # Per-window flat arrays in walk-major order.
    vm = valid.T.ravel()                                    # walk-major
    win_t = np.tile(np.arange(num_steps, dtype=np.int64), n_walks)[vm]
    win_walk = np.repeat(np.arange(n_walks, dtype=np.int64), num_steps)[vm]
    win_size = size_grid.T.ravel()[vm]
    win_woff = woff_grid.T.ravel()[vm]
    win_ord = ord_grid.T.ravel()[vm]
    win_slot = step_off[win_t] + cpos_of_chunk[wl_chunk_arr][win_walk]

    # Context elements: every window's contexts, walk-major; the element's
    # global buffer slot comes straight from the token ranks.  Padding
    # lanes gather (and scatter) the scratch row.
    elem_positions = np.concatenate(
        [wl_layout[j][0] + base
         for j, base in enumerate(wl_base_arr.tolist())])
    elem_slot = np.repeat(win_slot, win_size)
    elem_row = (np.repeat(win_woff - _exclusive_cumsum(win_size)[:-1],
                          win_size)
                + np.arange(elem_positions.size, dtype=np.int64))
    elem_lane = elem_slot * m_max + elem_row
    cidx = np.full((n_slots, m_max), ctx_size, dtype=np.int64)
    cidx.reshape(-1)[elem_lane] = ctx_slots[elem_positions]

    # Output rows: each batch's targets (walk order) then its k negatives.
    oidx = np.full((n_slots, b_max), out_size, dtype=np.int64)
    oidx.reshape(-1)[win_slot * b_max + win_ord] = \
        tgt_slots[wl_base_arr[win_walk] + win_t]
    wins = np.bincount(win_slot, minlength=n_slots)
    pair_c = np.repeat(np.arange(n_chunks, dtype=np.int64), chunk_steps)
    pair_t = (np.arange(n_slots, dtype=np.int64)
              - np.repeat(_exclusive_cumsum(chunk_steps)[:-1], chunk_steps))
    pair_slot = step_off[pair_t] + cpos_of_chunk[pair_c]
    lane_k = np.tile(np.arange(k, dtype=np.int64), n_slots)
    oidx.reshape(-1)[np.repeat(pair_slot * b_max + wins[pair_slot], k)
                     + lane_k] = \
        neg_slots[np.repeat(poff[pair_c] + pair_t * k, k) + lane_k]
    # Checked once here so the step kernel's gathers can skip it.
    if cidx.min() < 0 or cidx.max() > ctx_size \
            or oidx.min() < 0 or oidx.max() > out_size:
        raise IndexError("DSGL plan indexes outside its local buffers")
    plan.cidx, plan.oidx = cidx, oidx

    # Labels and validity mask per (slot, context lane, output lane).
    labels = np.zeros((n_slots, m_max, b_max), dtype=np.float32)
    labels.reshape(-1)[elem_lane * b_max + np.repeat(win_ord, win_size)] = 1.0
    m_counts = np.bincount(elem_slot, minlength=n_slots)
    plan.labels = labels
    plan.mask = (
        (np.arange(m_max)[None, :, None] < m_counts[:, None, None])
        & (np.arange(b_max)[None, None, :] < (wins + k)[:, None, None])
    ).astype(np.float32)
    return tokens, plan


class VectorizedDSGLLearner(BaseLearner):
    """Lock-step DSGL: all lifetimes of a cohort advance together.

    Executes the :class:`DSGLSlicePlan` breadth-first -- step ``t``
    processes the ``t``-th multi-window batch of every still-active
    lifetime as one stacked matrix multiplication -- which amortises the
    per-batch dispatch cost over every concurrent lifetime, exactly like
    the walk engine's lock-step supersteps.  Bit-identical to the
    reference's depth-first execution of the same plan (lifetimes are
    independent until the shared delta-merge writeback).

    :meth:`train_round` widens the lock-step across machines: the serial
    trainer hands it every machine's slice of a sync round and cohort
    *j* of all of them becomes one plan.  ``dsgl_threads`` still bounds
    the lifetimes *per replica*, so the staleness/quality frontier is
    untouched -- only the dispatch count falls.
    """

    name = "dsgl"

    def train_walks(self, walks: Sequence[np.ndarray], lr: float) -> int:
        return self.train_round([(self, walks, lr)])[0]

    @staticmethod
    def train_round(groups: Sequence[DSGLGroup]) -> List[int]:
        tokens = [0] * len(groups)
        if not groups:
            return tokens
        first = groups[0][0]
        ops = first.ops
        cohort = first.config.dsgl_threads * first.config.multi_windows
        spans = range(0, max(len(walks) for _, walks, _ in groups), cohort)

        def plan_span(i: int):
            # Planning never reads the matrices (negatives come from the
            # counter streams, layouts from walk lengths), so cohort i+1
            # can be planned -- and its constant tensors staged onto the
            # device copy stream via bind() -- while cohort i's kernels
            # are still queued.  Plans are built strictly in cohort
            # order, which keeps negative-stream consumption, and hence
            # reference parity, unchanged.
            if i >= len(spans):
                return None, None
            cohort_tokens, plan = plan_dsgl_slice(
                [(learner, walks[spans[i]:spans[i] + cohort], lr)
                 for learner, walks, lr in groups])
            if plan is not None:
                plan.cohort = i
                plan.bind(ops)
            return cohort_tokens, plan

        current = plan_span(0)
        for i in range(len(spans)):
            cohort_tokens, plan = current
            for g, used in enumerate(cohort_tokens):
                tokens[g] += used
            if plan is None:
                current = plan_span(i + 1)
                continue
            ctx_mega, ctx_start, out_mega, out_start = plan.gather(ops)
            plan.run_steps(ctx_mega, out_mega, ops)
            # Double buffering: stage the next cohort before this one's
            # delta download forces a device sync.
            current = plan_span(i + 1)
            plan.apply_writeback(ctx_mega, ctx_start, out_mega, out_start,
                                 ops)
        return tokens
