"""NumPy-vectorised batch walkers (the pure-Python fast path).

The reproduction note for this paper warns that per-walker Python loops
are too slow for walk sampling at interesting graph sizes; real DistGER
solves this with native code.  Our documented substitution is batch
vectorisation: advance *all* walkers of a round simultaneously with array
operations, which removes the interpreter constant per step and keeps the
examples and scalability benches runnable at 10^4-10^5 nodes.

Two batch layers live here:

* :func:`batch_walk_matrix` / :func:`vectorized_routine_corpus` -- the
  original free-standing first-order helpers (DeepWalk walks, KnightKing
  corpora) with no cluster accounting.

* :class:`BatchWalkRunner` -- the engine backend behind
  ``WalkConfig(backend="vectorized")``.  It generalises batching to
  stateful, individually-terminating **information-oriented** walks: all
  of a round's walkers advance in lock-step, with per-walker InCoM state
  (the ``S = Σ n log₂ n`` entropy accumulator and the five regression
  moments of Eq. 12/13) held as parallel NumPy arrays, termination
  (``mu``/min/max-length and dead ends) applied through active masks,
  and second-order kernels (node2vec, HuGE, HuGE+) via batched rejection
  sampling.  The runner records each step's arc and trial count next to
  the path (:class:`WalkBuffers`); :class:`DeferredWalkAccounting` turns
  those buffers into
  ``WalkStats`` and the simulated cluster's compute/message counters,
  byte-identical to the loop engine's in-loop accounting.

  Randomness follows the per-walker counter streams of
  :mod:`repro.utils.rng`: each walker consumes its private counter-based
  stream (two uniforms per trial), so this backend produces *the same
  corpus, walk lengths, termination decisions and metrics* as
  :class:`repro.walks.engine.DistributedWalkEngine` running the loop
  backend -- the property the reference-parity
  suite (``tests/test_walks_vectorized_parity.py``) pins down.

  Covered: kernels ``deepwalk``/``node2vec``/``node2vec-alias``/``huge``/
  ``huge+`` in modes ``routine`` and ``incom``.  The ``fullpath`` mode is
  deliberately *not* vectorised: HuGE-D's from-scratch O(L) recomputation
  per step is the baseline cost the benchmarks measure, so it stays on
  the loop engine (``backend="auto"`` resolves it there).
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

import numpy as np

from repro.graph.csr import CSRGraph
from repro.runtime.message import IncrementalMessage
from repro.utils.rng import (
    SeedLike,
    argument_uniforms,
    default_rng,
    stream_arguments,
    stream_stride,
    walker_stream_keys,
)
from repro.utils.validation import check_positive
from repro.walks.alias_sampling import FirstOrderAliasSampler
from repro.walks.corpus import Corpus
from repro.walks.termination import WalkLengthRule

#: Constant InCoM walker-message size (80 bytes, paper §3.1).
_INCOM_MESSAGE_BYTES = IncrementalMessage(0, 0, 0).byte_size()

#: Lanes (trials summed over live walkers) a superstep may evaluate; keeps
#: the trial block's scratch O(round).
_BLOCK_SCRATCH_LANES = 1 << 18

#: Share of a walker's expected rejections its block covers while the
#: superstep is lane-bound, and the live-walker count around which
#: interpreter dispatch, not lanes, starts to dominate a superstep (the
#: share doubles there and keeps growing as the superstep thins out).
_BLOCK_SHARE = 0.5
_DISPATCH_BOUND_WALKERS = 512

#: A trial consumes two counters of its walker's stream: the proposal
#: uniform, then the acceptance uniform one counter further.
_ACCEPT_STRIDE = stream_stride(1)
_TRIAL_STRIDE = stream_stride(2)


def batch_walk_matrix(
    graph: CSRGraph,
    sources: np.ndarray,
    walk_length: int,
    rng: SeedLike = None,
    sampler: Optional[FirstOrderAliasSampler] = None,
) -> np.ndarray:
    """First-order walks from every source, advanced in lock-step.

    ``walk_length`` counts **steps**, so the result is an
    ``int64[len(sources), walk_length + 1]`` matrix whose first column is
    ``sources``; positions after a dead end (out-degree 0, only possible on
    directed graphs) are padded with ``-1``.

    ``sampler`` may be shared across calls to amortise the alias setup for
    weighted graphs; unweighted graphs use a direct uniform draw.
    """
    check_positive("walk_length", walk_length, allow_zero=True)
    sources = np.asarray(sources, dtype=np.int64)
    if sources.size and (sources.min() < 0 or sources.max() >= graph.num_nodes):
        raise ValueError("sources contain node ids outside the graph")
    gen = default_rng(rng)
    n = sources.size
    paths = np.full((n, walk_length + 1), -1, dtype=np.int64)
    paths[:, 0] = sources
    if n == 0:
        return paths

    if graph.is_weighted and sampler is None:
        sampler = FirstOrderAliasSampler(graph)

    degrees = graph.degrees
    current = sources.copy()
    active = degrees[current] > 0
    for step in range(1, walk_length + 1):
        if not active.any():
            break
        cur = current[active]
        if sampler is not None:
            nxt = sampler.sample(cur, gen)
        else:
            starts = graph.indptr[cur]
            offs = (gen.random(cur.size) * degrees[cur]).astype(np.int64)
            nxt = graph.indices[starts + offs]
        paths[np.flatnonzero(active), step] = nxt
        current[active] = nxt
        # Walkers that stepped onto a dead end stop before the next step.
        still = degrees[nxt] > 0
        if not still.all():
            idx = np.flatnonzero(active)
            active[idx[~still]] = False
    return paths


def vectorized_routine_corpus(
    graph: CSRGraph,
    walk_length: int = 80,
    walks_per_node: int = 10,
    seed: SeedLike = None,
    sources: Optional[np.ndarray] = None,
) -> Corpus:
    """Routine corpus (r fixed-length walks per node) built in batch.

    Functionally equivalent to running
    ``WalkConfig.routine(kernel="deepwalk")`` through the distributed
    engine, minus the cluster accounting -- use this when only the corpus
    matters (examples, large-scale studies), and the engine when message
    and compute counters are the point.  ``walk_length`` counts **tokens**
    per walk (source included), matching the engine and the paper's L.

    Corpora built here append through the same staged path as the
    engine's, so calling :meth:`Corpus.spill_to` on the result (or on an
    empty corpus before the loop) moves the flat block out of core; each
    round's flush drains to the file-backed block and resident memory
    stays O(round), not O(corpus).
    """
    check_positive("walk_length", walk_length)
    check_positive("walks_per_node", walks_per_node)
    gen = default_rng(seed)
    if sources is None:
        sources = np.flatnonzero(graph.degrees > 0)
    sources = np.asarray(sources, dtype=np.int64)
    sampler = FirstOrderAliasSampler(graph) if graph.is_weighted else None
    corpus = Corpus(graph.num_nodes)
    for _round in range(walks_per_node):
        paths = batch_walk_matrix(graph, sources, walk_length - 1, gen, sampler)
        # Dead-end padding (-1) is a contiguous tail, so the per-row valid
        # prefix length recovers exactly the walks the per-row filter did;
        # the batch flush compacts them straight into the corpus's flat
        # token block.
        corpus.add_walks(paths, (paths >= 0).sum(axis=1))
    corpus.shrink_to_fit()
    return corpus


def empirical_transition_matrix(
    graph: CSRGraph,
    num_walks: int = 2000,
    walk_length: int = 1,
    seed: SeedLike = None,
) -> np.ndarray:
    """Empirical first-step transition frequencies (testing/diagnostics).

    Runs ``num_walks`` single steps from every node and returns a row-
    stochastic ``float64[num_nodes, num_nodes]`` matrix of observed
    frequencies.  Rows of dead-end nodes are all zero.
    """
    check_positive("num_walks", num_walks)
    gen = default_rng(seed)
    n = graph.num_nodes
    counts = np.zeros((n, n), dtype=np.float64)
    sources = np.repeat(np.arange(n, dtype=np.int64), num_walks)
    paths = batch_walk_matrix(graph, sources, walk_length, gen)
    first = paths[:, 1]
    ok = first >= 0
    np.add.at(counts, (paths[ok, 0], first[ok]), 1.0)
    row_sums = counts.sum(axis=1, keepdims=True)
    np.divide(counts, row_sums, out=counts, where=row_sums > 0)
    return counts


# ---------------------------------------------------------------------- #
# Batched information-oriented engine (WalkConfig backend "vectorized")
# ---------------------------------------------------------------------- #


def weighted_row_cumsum(graph: CSRGraph) -> np.ndarray:
    """Flat per-row weight cumsums (the rejection kernels' draw table).

    One ``float64[num_stored_edges]`` array holding each adjacency row's
    ``np.cumsum`` -- per row, not global, so every value matches the
    scalar kernels' per-node caches bit for bit.  Shared between
    :class:`BatchWalkRunner` instances (the process executor computes it
    once and hands workers shared-memory views).
    """
    cum = np.empty(graph.num_stored_edges, dtype=np.float64)
    indptr = graph.indptr
    for u in range(graph.num_nodes):
        s, e = int(indptr[u]), int(indptr[u + 1])
        if s != e:
            cum[s:e] = np.cumsum(graph.weights[s:e])
    return cum


def _xlog2x_batch(v: np.ndarray) -> np.ndarray:
    """``v · log₂ v`` elementwise with ``0·log 0 = 0`` (float64 in/out).

    The array twin of :func:`repro.utils.incremental._xlog2x`; NumPy's
    scalar and array ufunc paths are bit-identical, which keeps the batch
    entropy accumulator equal to the scalar one.
    """
    out = np.zeros_like(v)
    nz = v > 0
    out[nz] = v[nz] * np.log2(v[nz])
    return out


def _bisect_rows(
    values: np.ndarray,
    base: np.ndarray,
    sizes: np.ndarray,
    x: np.ndarray,
    right: bool,
) -> np.ndarray:
    """Per-row binary search over slices of a flat sorted array.

    Returns, for every ``i``, ``np.searchsorted(values[base[i]:base[i] +
    sizes[i]], x[i], side="right" if right else "left")`` as a vectorised
    bisection -- performing the exact ``a[mid] <= x`` (right) or
    ``a[mid] < x`` (left) comparisons of NumPy's scalar binary search, so
    the weighted cumsum draws and arc lookups match the scalar kernels
    bit-for-bit.
    """
    lo = np.zeros(x.size, dtype=np.int64)
    hi = sizes.astype(np.int64).copy()
    while True:
        open_ = lo < hi
        if not open_.any():
            return lo
        mid = (lo + hi) >> 1
        descend = np.zeros(x.size, dtype=bool)
        sel = np.flatnonzero(open_)
        probe = values[base[sel] + mid[sel]]
        descend[sel] = probe <= x[sel] if right else probe < x[sel]
        lo = np.where(open_ & descend, mid + 1, lo)
        hi = np.where(open_ & ~descend, mid, hi)


def _locate_in_rows(
    indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray, values: np.ndarray
) -> np.ndarray:
    """Bisect-left position of ``values[i]`` inside the sorted adjacency
    slice of ``rows[i]`` (may equal the row degree when absent)."""
    base = indptr[rows]
    return _bisect_rows(indices, base, indptr[rows + 1] - base, values,
                        right=False)


def _has_edges_batch(
    indptr: np.ndarray, indices: np.ndarray, us: np.ndarray, vs: np.ndarray
) -> np.ndarray:
    """Vectorised ``graph.has_edge(us[i], vs[i])`` (all ``us`` must have
    degree > 0)."""
    pos = _locate_in_rows(indptr, indices, us, vs)
    deg = (indptr[us + 1] - indptr[us]).astype(np.int64)
    inside = pos < deg
    probe = indptr[us] + np.minimum(pos, np.maximum(deg - 1, 0))
    return inside & (indices[probe] == vs)


class _TrialLanes:
    """Flat scratch for a runner's trial blocks.

    A superstep's block is **ragged and walker-major**: live walker ``j``
    owns the ``widths[j]`` consecutive lanes that start at ``begin[j]``,
    lane ``begin[j] + t`` being the trial it would run ``t`` rejections
    from now.  Every per-lane array of the block is a prefix of a buffer
    held here and reused by every superstep -- sized by the widest block
    seen so far, not by the budget -- so a wide superstep recycles warm
    memory instead of faulting eight fresh temporaries in, which is where
    the time and the resident-set peak of large blocks otherwise go.

    The four ``words`` rows are viewed as whatever 8-byte type a step
    needs: :meth:`uniforms` mixes in rows 0-1 with rows 2-3 as scratch
    and leaves ``(u1, u2)`` in rows 2-3; rows 0-1 are then the kernel's
    (:meth:`row`, :meth:`expand`).
    """

    def __init__(self) -> None:
        self._capacity = 0
        self.total = 0
        #: Lane -> position of its walker in the superstep's ``alive``
        #: (``None`` when every width is 1: lanes *are* walkers).
        self.own: Optional[np.ndarray] = None

    def _reserve(self, lanes: int) -> None:
        """Fresh buffers for ``lanes`` lanes (nothing in them outlives a
        superstep, so nothing is carried over)."""
        self._capacity = lanes
        self._words = np.empty((4, lanes), dtype=np.uint64)
        self._own = np.empty(lanes, dtype=np.int64)
        self._flags = np.empty(lanes, dtype=bool)
        # Lane i's offset from a block that started at lane 0.
        self._ramp = np.arange(lanes, dtype=np.uint64) * _TRIAL_STRIDE

    def layout(self, widths: np.ndarray, ends: np.ndarray) -> None:
        """Adopt the block ``widths`` (``ends`` = their running sum)."""
        total = self.total = int(ends[-1])
        if total > self._capacity:
            # Blocks widen as walkers drift onto hubs, then thin out with
            # the round: grow in small steps, the peak is held for long.
            self._reserve(max(total, self._capacity * 5 // 4))
        if total == widths.size:
            self.own = None
            return
        own = self._own[:total]
        own[...] = 0
        own[ends[:-1]] = 1          # widths >= 1: block starts are distinct
        self.own = np.cumsum(own, out=own)

    def row(self, index: int, dtype=np.int64) -> np.ndarray:
        """Scratch row ``index`` as ``total`` lanes of ``dtype`` (8 bytes)."""
        return self._words[index, :self.total].view(dtype)

    def flags(self) -> np.ndarray:
        """One boolean per lane (the block's acceptance mask)."""
        return self._flags[:self.total]

    def expand(self, per_walker: np.ndarray, index: int) -> np.ndarray:
        """``per_walker[own]`` into scratch row ``index`` (the per-walker
        array itself when lanes are walkers)."""
        if self.own is None:
            return per_walker
        return np.take(per_walker, self.own, mode="clip",
                       out=self.row(index, per_walker.dtype))

    def uniforms(self, args: np.ndarray, begin: np.ndarray) -> np.ndarray:
        """Rows ``(u1, u2)`` of every lane: the proposal and acceptance
        uniform of trial ``t`` sit at stream arguments ``args + 2t·γ`` and
        one ``γ`` further (see :func:`repro.utils.rng.stream_arguments`).

        ``args + (i − begin)·2γ`` is evaluated as ``(args − begin·2γ)``
        expanded per lane plus a fixed ramp ``i·2γ`` -- one gather and one
        add per lane, all modulo 2**64 like every stream argument.
        """
        total = self.total
        z, scratch = self._words[:2, :total], self._words[2:, :total]
        base = args - begin.astype(np.uint64) * _TRIAL_STRIDE
        np.add(self.expand(base, 0), self._ramp[:total], out=z[0])
        np.add(z[0], _ACCEPT_STRIDE, out=z[1])
        return argument_uniforms(z, out=scratch.view(np.float64),
                                 scratch=scratch)


class WalkBuffers(NamedTuple):
    """A batch of walks as :meth:`BatchWalkRunner.run_walks` leaves it:
    ``n`` rows of up to ``cap`` tokens, and what each step cost.

    Step ``s`` of walk ``i`` moved to ``paths[i, s]`` along stored arc
    ``arcs[i, s]`` after ``trials[i, s]`` sampling trials (rejections +
    the accepted or forced one) at ``paths[i, s - 1]``; ``trials`` is 0
    wherever no step happened (column 0, and past ``lengths[i]``).
    """

    paths: np.ndarray       # int64 (n, cap), -1 past the walk
    lengths: np.ndarray     # int64 (n,)
    trials: np.ndarray      # int32 (n, cap)
    arcs: np.ndarray        # int64 (n, cap), -1 where no step happened

    @classmethod
    def allocate(cls, n: int, cap: int, empty=np.empty) -> "WalkBuffers":
        """Unfilled buffers; ``empty(shape, dtype)`` allocates each (a
        shared-memory group's for the executor's round slots)."""
        return cls(empty((n, cap), np.int64), empty((n,), np.int64),
                   empty((n, cap), np.int32), empty((n, cap), np.int64))

    def rows(self, lo: int, hi: int) -> "WalkBuffers":
        """Views of walks ``lo:hi``."""
        return WalkBuffers(*(buffer[lo:hi] for buffer in self))


class BatchWalkRunner:
    """Lock-step walker batch over one graph.

    Owns the per-graph precomputations (flat weight cumsums, per-arc HuGE
    acceptance table, alias tables via the kernel) and advances batches
    of walkers with :meth:`run_walks` -- the engine's serial rounds, the
    walk workers and the dynamic resample all call it.  It never sees
    the node placement: walker streams hang off ``walk_seed_root`` and
    what a step cost is recorded per step, for
    :class:`DeferredWalkAccounting` to credit wherever the assignment is
    known.
    """

    def __init__(self, graph: CSRGraph, walk_seed_root: int, config, kernel,
                 tables: Optional[dict] = None) -> None:
        if config.mode == "fullpath":
            raise ValueError(
                "the fullpath (HuGE-D) measurement is deliberately O(L) per "
                "step and stays on the loop backend; use backend='auto' or "
                "'loop' for mode='fullpath'"
            )
        tables = tables or {}
        self.graph = graph
        self.walk_seed_root = walk_seed_root
        self.config = config
        self.kernel = kernel
        self.kind = kernel.name
        #: Whether the transition reads the walker's previous node.
        self._second_order = self.kind in ("node2vec", "node2vec-alias")
        self.info_mode = config.mode != "routine"
        self.length_rule = (
            WalkLengthRule(mu=config.mu, min_length=config.min_length,
                           max_length=config.max_length)
            if self.info_mode else None
        )
        #: Path buffer width: the most tokens a walk can hold.
        self.cap = config.max_length if self.info_mode else config.walk_length
        self._indptr = graph.indptr
        self._indices = graph.indices
        self._degrees = graph.degrees
        self._degrees_f = graph.degrees.astype(np.float64)
        if self.info_mode:
            # ΔS of appending a node seen k times before, for every k a
            # path can hold: (k+1)·log₂(k+1) − k·log₂ k.
            seen = np.arange(config.max_length + 1, dtype=np.float64)
            self._xlog2x_gain = (_xlog2x_batch(seen + 1.0)
                                 - _xlog2x_batch(seen))

        # Kernel-specific tables.  All values are produced by (or shared
        # with) the scalar kernel code, keeping the two backends bit-equal.
        # ``tables`` lets the process executor hand every worker one
        # precomputed copy instead of paying the build per process.
        self._row_cumsum: Optional[np.ndarray] = None
        if graph.is_weighted and self.kind != "node2vec-alias":
            self._row_cumsum = tables.get("row_cumsum")
            if self._row_cumsum is None:
                self._row_cumsum = weighted_row_cumsum(graph)
        #: Expected rejections per accepted step at each node (HuGE
        #: kernels; the widths policy's per-walker input).
        self._node_rejections: Optional[np.ndarray] = None
        if self.kind in ("huge", "huge+"):
            self._arc_accept = tables.get("arc_accept")
            if self._arc_accept is None:
                self._arc_accept = kernel.arc_acceptance_table()
            self._node_rejections = self._expected_rejections()
        elif self.kind == "node2vec-alias":
            sampler = kernel.sampler
            fo = sampler._first_order
            self._fo_accept = fo._accept
            self._fo_alias = fo._alias_local
            self._so_offsets = sampler._table_offsets
            self._so_accept = sampler._accept
            self._so_alias = sampler._alias_local
        # The trial lanes outlive a call: their scratch is reused.
        self._lanes = _TrialLanes()

    def _expected_rejections(self) -> np.ndarray:
        """``1 / (a node's mean acceptance) − 1`` from the per-arc table.

        Every trial at ``u`` proposes an arc from the same distribution
        (uniform, or weight-proportional on weighted graphs), so trials
        there accept independently with that proposal-weighted mean and
        the rejections before a hop are geometric with this expectation.
        Capped at ``max_trials_per_step`` (the forced hop bounds them) and
        0 for dead ends, which no live walker stands on.
        """
        graph = self.graph
        source = np.repeat(np.arange(graph.num_nodes), graph.degrees)
        # Per node: proposal mass, and the part of it that is accepted.
        mass, accepted = self._degrees_f, self._arc_accept
        if graph.is_weighted:
            mass = np.bincount(source, weights=graph.weights,
                               minlength=graph.num_nodes)
            accepted = graph.weights * accepted
        hit = np.bincount(source, weights=accepted,
                          minlength=graph.num_nodes)
        cap = float(self.config.max_trials_per_step)
        with np.errstate(divide="ignore", invalid="ignore"):
            rejections = mass / hit - 1.0
        rejections[~(rejections > 0)] = 0.0     # dead ends, rounding, NaN
        return np.minimum(rejections, cap, out=rejections)

    # ------------------------------------------------------------------ #
    # InCoM batch state helpers
    # ------------------------------------------------------------------ #

    def _observe(self, idx: np.ndarray, prior: np.ndarray,
                 lengths_after: np.ndarray) -> None:
        """Batch twin of ``IncrementalWalkMeasure.observe``.

        ``prior`` is each walker's occurrence count of the appended node
        *before* the append; ``lengths_after`` the token count including
        it (== every accumulator's observation count).
        """
        s = self._S[idx] + self._xlog2x_gain[prior]
        self._S[idx] = s
        lf = lengths_after.astype(np.float64)
        h = np.log2(lf) - s / lf
        for arr, x in (
            (self._e_h, h),
            (self._e_l, lf),
            (self._e_hl, h * lf),
            (self._e_h2, h * h),
            (self._e_l2, lf * lf),
        ):
            old = arr[idx]
            arr[idx] = old + (x - old) / lf

    def _r_squared(self, idx: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """Batch twin of ``IncrementalCorrelation.r_squared`` (same guards,
        same arithmetic, same clipping)."""
        e_h, e_l = self._e_h[idx], self._e_l[idx]
        var_x = self._e_h2[idx] - e_h * e_h
        var_y = self._e_l2[idx] - e_l * e_l
        cov = self._e_hl[idx] - e_h * e_l
        r = np.ones(idx.size, dtype=np.float64)
        ok = (counts >= 2) & (var_x > 1e-15) & (var_y > 1e-15)
        r[ok] = cov[ok] / np.sqrt(var_x[ok] * var_y[ok])
        np.clip(r, -1.0, 1.0, out=r)
        return r * r

    # ------------------------------------------------------------------ #
    # Kernel batch steps
    # ------------------------------------------------------------------ #

    def _propose(self, lanes: _TrialLanes, cur: np.ndarray,
                 u1: np.ndarray) -> np.ndarray:
        """Uniform→arc map shared by the rejection kernels: per lane, the
        flat arc index of ``propose_with_uniform``'s candidate (its local
        index already offset by the row start).  Row start and degree are
        gathered once per walker (``cur``) and expanded per lane; uses
        scratch rows 0-1 and returns row 1 on unweighted graphs."""
        starts = self._indptr[cur]
        last = starts + self._degrees[cur] - 1
        if self._row_cumsum is not None:
            starts = lanes.expand(starts, 0)
            last = lanes.expand(last, 1)
            arc = _bisect_rows(self._row_cumsum, starts, last - starts + 1,
                               u1 * self._row_cumsum[last], right=True)
            arc += starts
            return np.minimum(arc, last, out=arc)
        x = lanes.row(0, np.float64)
        np.multiply(u1, lanes.expand(self._degrees_f[cur], 0), out=x)
        arc = lanes.row(1)
        np.copyto(arc, x, casting="unsafe")     # truncation, as astype
        arc += lanes.expand(starts, 0)
        return np.minimum(arc, lanes.expand(last, 0), out=arc)

    def _trial(self, lanes: _TrialLanes, cur: np.ndarray, prev: np.ndarray,
               u1: np.ndarray, u2: np.ndarray):
        """One block of sampling trials: ``(arc, accepted)`` per lane --
        the flat index of the proposed arc and whether the kernel takes it
        (the forced hop is the caller's).  ``cur``/``prev`` are per
        walker; candidate ids are the caller's to gather, for the lanes
        that win (HuGE's acceptance reads the arc, never the candidate)."""
        if self.kind == "node2vec-alias":
            return self._trial_alias(lanes, cur, prev, u1, u2)
        arc = self._propose(lanes, cur, u1)
        accepted = lanes.flags()
        if self.kind == "deepwalk":
            accepted[...] = True
        elif self.kind in ("huge", "huge+"):
            np.less(u2, np.take(self._arc_accept, arc, mode="clip",
                                out=lanes.row(0, np.float64)), out=accepted)
        else:
            # node2vec: KnightKing's rejection envelope, batched.
            kernel = self.kernel
            cand = self._indices[arc]
            prev = lanes.expand(prev, 0)
            first = prev < 0
            adjacent = np.zeros(cand.size, dtype=bool)
            second = np.flatnonzero(~first)
            if second.size:
                adjacent[second] = _has_edges_batch(
                    self._indptr, self._indices, prev[second], cand[second]
                )
            pi = np.where(
                first, 1.0,
                np.where(cand == prev, 1.0 / kernel.p,
                         np.where(adjacent, 1.0, 1.0 / kernel.q)),
            )
            np.greater_equal(pi, u2 * kernel._envelope, out=accepted)
        return arc, accepted

    def _trial_alias(self, lanes: _TrialLanes, cur: np.ndarray,
                     prev: np.ndarray, u1: np.ndarray, u2: np.ndarray):
        """Batched alias-table draw (never rejects)."""
        cur = lanes.expand(cur, 0)
        prev = lanes.expand(prev, 1)
        arc = np.empty(lanes.total, dtype=np.int64)
        first = prev < 0
        fo = np.flatnonzero(first)
        if fo.size:
            deg = self._degrees[cur[fo]]
            slot = np.minimum((u1[fo] * deg).astype(np.int64), deg - 1)
            flat = self._indptr[cur[fo]] + slot
            use_alias = u2[fo] >= self._fo_accept[flat]
            slot = np.where(use_alias, self._fo_alias[flat], slot)
            arc[fo] = self._indptr[cur[fo]] + slot
        so = np.flatnonzero(~first)
        if so.size:
            # Flat index of arc (prev, cur): position of cur within N(prev).
            pos = _locate_in_rows(self._indptr, self._indices,
                                  prev[so], cur[so])
            table = self._indptr[prev[so]] + pos
            t_start = self._so_offsets[table]
            size = (self._so_offsets[table + 1] - t_start).astype(np.int64)
            slot = np.minimum((u1[so] * size).astype(np.int64), size - 1)
            use_alias = u2[so] >= self._so_accept[t_start + slot]
            slot = np.where(use_alias, self._so_alias[t_start + slot], slot)
            arc[so] = self._indptr[cur[so]] + slot
        accepted = lanes.flags()
        accepted[...] = True
        return arc, accepted

    def _block_width(self, cur: np.ndarray, waited: np.ndarray,
                     spent: int, hops: int) -> np.ndarray:
        """The widths policy: trials to evaluate this superstep for each
        live walker (standing on ``cur``, ``waited`` rejections into its
        current step).  **Any** positive widths yield the same bytes --
        the caller clamps them to the forced-hop horizon and the scratch
        budget -- so this only trades lanes evaluated behind an accept
        against supersteps.

        A walker's block is one trial plus a share of the rejections it
        should expect where it stands: from the per-node table under the
        HuGE kernels (trials at a node accept independently with its mean
        acceptance, so per-node expectations span ~0 at leaves to the cap
        at hubs), from the call's running rejections per accepted step
        otherwise -- zero for the kernels that never reject, which
        therefore stay at one lane and draw only the uniforms they
        consume.  The share grows as the superstep thins out: a block of
        thousands of walkers is lane-bound and should waste few lanes, a
        few hundred (the tail of a round, a dynamic-update resample) are
        dispatch-bound and should finish in few supersteps.  A walker
        whose earlier blocks all failed gets at least as many lanes again.
        """
        if self._node_rejections is not None:
            rejections = self._node_rejections[cur]
        else:
            rejections = (spent - hops) / hops if hops else 0.0
        share = _BLOCK_SHARE * (1.0 + _DISPATCH_BOUND_WALKERS / cur.size)
        widths = np.ceil(share * rejections).astype(np.int64) + 1
        return np.maximum(widths, waited)

    def _finished(self, idx: np.ndarray, nodes: np.ndarray,
                  at: np.ndarray) -> np.ndarray:
        """Termination mask of walkers ``idx`` standing on ``nodes`` with
        ``at`` tokens -- same decision order as the loop engine's
        ``_walk_finished``: dead end, then the length rule."""
        done = self._degrees[nodes] == 0
        if self.info_mode:
            done |= self.length_rule.stop_mask(at, self._r_squared(idx, at))
        else:
            done |= at >= self.config.walk_length
        return done

    # ------------------------------------------------------------------ #
    # One batch of walks
    # ------------------------------------------------------------------ #

    def run_walks(self, sources: np.ndarray, walk_ids: np.ndarray,
                  out: Optional[WalkBuffers] = None) -> WalkBuffers:
        """Advance one walk per source to termination, lock-step.

        Walker streams are keyed by the caller-supplied ``walk_ids``
        (globally unique, so a worker holding a slice of a round produces
        exactly the walks the whole-round call would).  Returns the
        :class:`WalkBuffers`, ``cap`` columns wide -- ``out`` when given
        (a round slot: the engine's in-process one or a row range of the
        executor's shared-memory ring).  Nothing is credited anywhere:
        trials, steps, compute and message counters are pure functions of
        the per-step trials and arcs and of the node assignment, which
        :class:`DeferredWalkAccounting` applies bit for bit.

        Each superstep resolves a **ragged block** of trials: live walker
        ``j`` gets ``widths[j]`` lanes (:meth:`_block_width`, clamped here
        to its forced-hop horizon and jointly to the scratch budget), the
        lanes of all walkers laid out flat and walker-major over
        :class:`_TrialLanes`.  A walker stands still between rejections
        and its stream is a pure function of ``(key, counter)``, so lane
        ``t`` of its block *is* the trial it would run ``t`` supersteps
        from now; its first accepted lane decides the hop, the lanes
        behind it are dropped and their counters never consumed.  Trials
        are counted by the lanes *used* and recorded when their step
        completes: every buffer is one function of the seed for every
        width vector, the rectangular block and one trial per superstep
        included (the loop engine is the oracle the parity suites hold
        this to).
        """
        cfg = self.config
        n = sources.size
        cap = self.cap

        # Where each walker stands in its stream: the argument of its next
        # proposal uniform (counter 0 now, one trial stride per trial).
        args = stream_arguments(
            walker_stream_keys(self.walk_seed_root, walk_ids), 0)
        if out is None:
            out = WalkBuffers.allocate(n, cap)
        paths, lengths, trials, arcs = out
        paths[...] = -1
        paths[:, 0] = sources
        lengths[...] = 1
        trials[...] = 0
        arcs[...] = -1
        current = sources.astype(np.int64).copy()
        previous = np.full(n, -1, dtype=np.int64)
        trials_at_step = np.zeros(n, dtype=np.int64)
        alive = np.arange(n)
        if self.info_mode:
            self._S = np.zeros(n, dtype=np.float64)
            self._e_h = np.zeros(n, dtype=np.float64)
            self._e_l = np.zeros(n, dtype=np.float64)
            self._e_hl = np.zeros(n, dtype=np.float64)
            self._e_h2 = np.zeros(n, dtype=np.float64)
            self._e_l2 = np.zeros(n, dtype=np.float64)
            # observe(source): prior count 0, one token on the path.
            self._observe(alive, np.zeros(n, dtype=np.int64), lengths)
        # Termination is a function of where a walker stands and what it
        # has measured, so it is decided once here and again only for the
        # walkers that hop; ``alive`` carries the rest across supersteps.
        alive = alive[~self._finished(alive, current, lengths)]

        # A walker is forced to hop once max_trials_per_step trials of a
        # step were rejected, so its block never needs to reach further.
        horizon = cfg.max_trials_per_step + 1
        lanes = self._lanes
        # Supersteps, not trials: a block is never slower than one trial.
        max_iters = cap * (cfg.max_trials_per_step + 2) + 8
        spent = hops = 0   # this call's trials / accepted steps so far
        for _ in range(max_iters):
            if alive.size == 0:
                break
            # 1) The block.
            cur = current[alive]
            waited = trials_at_step[alive]
            room = horizon - waited
            widths = np.clip(self._block_width(cur, waited, spent, hops),
                             1, room)
            ends = np.cumsum(widths)
            if ends[-1] > _BLOCK_SCRATCH_LANES:
                np.minimum(widths,
                           max(1, _BLOCK_SCRATCH_LANES // alive.size),
                           out=widths)
                ends = np.cumsum(widths)
            begin = ends - widths
            lanes.layout(widths, ends)
            stream_at = args[alive]
            u1, u2 = lanes.uniforms(stream_at, begin)
            prev = previous[alive] if self._second_order else None
            arc, accepted = self._trial(lanes, cur, prev, u1, u2)
            # The forced hop: a block that reaches the horizon ends on it.
            accepted[ends[widths == room] - 1] = True

            # 2) Lanes are walker-major, so a walker's first accepted lane
            #    is the head of its run in the sorted accepted lanes.
            lane = np.flatnonzero(accepted)
            owner = lane if lanes.own is None else lanes.own[lane]
            head = np.ones(lane.size, dtype=bool)
            np.not_equal(owner[1:], owner[:-1], out=head[1:])
            win = lane[head]     # flat lane that decides each hop
            sel = owner[head]    # its walker, as a position in ``alive``
            used = widths        # lanes consumed: all, or up to the winner
            used[sel] = win - begin[sel] + 1
            waited += used
            step_trials = waited[sel]   # what each completed step cost
            waited[sel] = 0
            trials_at_step[alive] = waited
            args[alive] = stream_at + used.astype(np.uint64) * _TRIAL_STRIDE
            spent += int(used.sum())

            if sel.size == 0:
                continue

            # 3) The hops, and the only walkers whose termination moved.
            idx = alive[sel]
            hops += int(sel.size)
            taken = arc[win]
            hop = self._indices[taken]
            pos = lengths[idx]
            if self.info_mode:
                # Occurrences of the accepted node on the path so far: the
                # batch form of InCoM's per-walker visit counters.  This
                # scan is O(current length) per step, bounded by
                # max_length (80 at paper scale); revisits are the
                # minority, so the hits are counted from their flat
                # positions rather than by summing rows.  A per-walker
                # hashed (walker, node) -> count table was prototyped and
                # lost to the scan at the benchmark's walk lengths
                # (ROADMAP item 4 has the numbers); the simulated cost
                # model still credits the paper's O(1) InCoM update,
                # which the scalar backend's dict counters realise
                # literally.
                reach = int(pos.max())
                seen = np.flatnonzero(paths[idx, :reach] == hop[:, None])
                prior = np.bincount(seen // reach, minlength=idx.size)
            if self._second_order:
                previous[idx] = cur[sel]
            current[idx] = hop
            paths[idx, pos] = hop
            pos += 1
            lengths[idx] = pos
            if self.info_mode:
                self._observe(idx, prior, pos)
            # A walker does not move between rejections and every live
            # walker ends its step (the forced hop), so a step's trials
            # all ran at the node the arc leaves.
            trials[idx, pos - 1] = step_trials
            arcs[idx, pos - 1] = taken
            done = self._finished(idx, hop, pos)
            if done.any():
                keep = np.ones(alive.size, dtype=bool)
                keep[sel[done]] = False
                alive = alive[keep]
        else:
            raise RuntimeError(
                f"batched walk round did not converge in {max_iters} "
                "supersteps"
            )
        return out


class DeferredWalkAccounting:
    """Walk-phase accounting from the buffers :meth:`BatchWalkRunner.run_walks`
    fills -- the one way vectorized walks reach ``WalkStats`` and the
    cluster metrics, whatever the execution.

    The cost model credits, at the machine a walker currently occupies:
    one compute unit per sampling trial, one local step (plus one InCoM
    measurement unit in the information-oriented modes) per accepted
    step, and one ``message_bytes``-sized message per machine-crossing
    step.  All of it is determined by the stored arc each step took (its
    source is where the step's trials ran) -- so this class aggregates
    rounds into two placement-free per-arc arrays (steps and trials) and
    maps them onto machines in one pass once the assignment is known.
    Every counter is an integer-valued float, so the late application
    equals the loop engine's increment-by-increment accounting bit for
    bit (pinned by the block-trial and executor parity suites).
    """

    def __init__(self, graph, info_mode: bool, message_bytes: int) -> None:
        self._graph = graph
        self.info_mode = info_mode
        self.message_bytes = int(message_bytes)
        self._arc_steps = np.zeros(graph.num_stored_edges, dtype=np.int64)
        self._arc_trials = np.zeros(graph.num_stored_edges, dtype=np.int64)

    def observe_round(self, walks: WalkBuffers) -> Tuple[int, int]:
        """Fold one round's buffers in; returns ``(trials, steps)`` totals."""
        # Every step ran at least its accepted (or forced) trial.
        step = walks.trials > 0
        arcs = walks.arcs[step]
        trials = walks.trials[step]
        num_arcs = self._graph.num_stored_edges
        self._arc_steps += np.bincount(arcs, minlength=num_arcs)
        self._arc_trials += np.bincount(
            arcs, weights=trials, minlength=num_arcs).astype(np.int64)
        return int(trials.sum()), int(arcs.size)

    def apply(self, assignment: np.ndarray, metrics) -> None:
        """Credit everything observed so far against ``assignment``."""
        m = metrics.num_machines
        graph = self._graph
        src = assignment[np.repeat(np.arange(graph.num_nodes), graph.degrees)]
        dst = assignment[graph.indices]
        trials_m = np.bincount(src, weights=self._arc_trials, minlength=m)
        steps_m = np.bincount(src, weights=self._arc_steps, minlength=m)
        for machine in np.flatnonzero(trials_m):
            # One compute unit per sampling trial.
            metrics.record_compute(int(machine), float(trials_m[machine]))
        for machine in np.flatnonzero(steps_m):
            metrics.record_local_step(int(machine), int(steps_m[machine]))
            if self.info_mode:
                # InCoM measurement cost: O(1) per accepted step.
                metrics.record_compute(int(machine), float(steps_m[machine]))
        crossing = (src != dst) & (self._arc_steps > 0)
        if crossing.any():
            pair = src[crossing] * m + dst[crossing]
            counts = np.bincount(pair, weights=self._arc_steps[crossing],
                                 minlength=m * m)
            for p in np.flatnonzero(counts):
                c = int(counts[p])
                metrics.record_messages(c, c * self.message_bytes,
                                        src=int(p // m), dst=int(p % m))
