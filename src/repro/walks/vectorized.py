"""NumPy-vectorised batch walkers (the pure-Python fast path).

The reproduction note for this paper warns that per-walker Python loops
are too slow for walk sampling at interesting graph sizes; real DistGER
solves this with native code.  Our documented substitution is batch
vectorisation: advance *all* walkers of a round simultaneously with array
operations, which removes the interpreter constant per step and keeps the
examples and scalability benches runnable at 10^4-10^5 nodes.

:class:`BatchWalkRunner` is the one lock-step engine behind every walk
mode.  All of a round's walkers advance in lock-step, termination
(``mu``/min/max-length and dead ends) applied through active masks, and
each superstep's block of sampling trials resolved by the kernel's
batched trial (:meth:`repro.walks.kernels.WalkKernel.trial`).  The runner
owns the widths policy, the superstep loop and the trial lanes; the
kernel owns the lane arithmetic and its tables.  A kernel that
``resolves_walks`` (the HuGE kernels' compiled library) replaces them: in
every mode one call runs every walker of the batch to termination and no
superstep runs.  The NumPy lanes stay the reference and the fallback.
The modes differ only in how a walk is *measured*:

* ``routine`` -- not at all: walks stop at ``walk_length`` tokens;
* ``incom`` -- DistGER's InCoM: per-walker state (the ``S = Σ n log₂ n``
  entropy accumulator and the five regression moments of Eq. 12/13) held
  as the rows of one ``(6, n)`` array, updated in O(1) per step;
* ``fullpath`` -- HuGE-D: the entropy of the whole path recomputed for
  every token count and the Eq. 5 R² recomputed over the whole series --
  O(L) per step, one scalar :func:`repro.utils.stats.entropy_of_counts`
  / :func:`repro.utils.stats.r_squared` call per walker and length,
  because that recomputation is the baseline cost the benchmarks
  measure.  A walker's path is a function of its stream alone, and the
  measurement only decides where the walk stops, so walks run to ``cap``
  (or a dead end) and are cut to length afterwards (:meth:`_cut_to_length`).

The runner records each step's arc and trial count next to the path
(:class:`WalkBuffers`); :class:`DeferredWalkAccounting` turns those
buffers into ``WalkStats`` and the simulated cluster's compute/message
counters, byte-identical to the per-walker loop oracle's in-loop
accounting.

Randomness follows the per-walker counter streams of
:mod:`repro.utils.rng`: each walker consumes its private counter-based
stream (two uniforms per trial), so these rounds produce *the same
corpus, walk lengths, termination decisions and metrics* as the
per-walker loop reference (``tests/oracles/walks.py``) driven over the
same config -- the property the reference-parity suite
(``tests/test_walks_vectorized_parity.py``) pins down, for every kernel
of :data:`repro.walks.kernels.KERNELS` in every mode.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

import numpy as np

from repro.graph.csr import CSRGraph
from repro.runtime.message import (
    BYTES_PER_FIELD,
    FullPathMessage,
    IncrementalMessage,
)
from repro.utils.rng import (
    argument_uniforms,
    stream_arguments,
    stream_stride,
    walker_stream_keys,
)
from repro.utils.stats import entropy_of_counts, r_squared
from repro.walks.termination import WalkLengthRule

#: Constant InCoM walker-message size (80 bytes, paper §3.1).
_INCOM_MESSAGE_BYTES = IncrementalMessage(0, 0, 0).byte_size()
#: HuGE-D's walker message without its path (24 bytes); the path adds
#: ``BYTES_PER_FIELD`` per token (paper §3.1: 24 + 8L).
_FULLPATH_HEADER_BYTES = FullPathMessage(0, 0, 0).byte_size()

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

    Advances batches of walkers with :meth:`run_walks` -- the engine's
    serial rounds, the walk workers and the dynamic resample all call it
    -- through one kernel's batched trial
    (:meth:`repro.walks.kernels.WalkKernel.trial`), which owns the
    per-graph tables.  It never sees the node placement: walker streams
    hang off ``walk_seed_root`` and what a step cost is recorded per
    step, for :class:`DeferredWalkAccounting` to credit wherever the
    assignment is known.
    """

    def __init__(self, graph: CSRGraph, walk_seed_root: int, config,
                 kernel) -> None:
        self.graph = graph
        self.walk_seed_root = walk_seed_root
        self.config = config
        self.kernel = kernel
        #: How a walk is measured: ``routine`` | ``incom`` | ``fullpath``.
        self.mode = config.mode
        self.info_mode = config.mode != "routine"
        self.length_rule = (
            WalkLengthRule(mu=config.mu, min_length=config.min_length,
                           max_length=config.max_length)
            if self.info_mode else None
        )
        #: Path buffer width: the most tokens a walk can hold.
        self.cap = config.max_length if self.info_mode else config.walk_length
        self._indices = graph.indices
        self._degrees = graph.degrees
        if self.mode == "incom":
            # ΔS of appending a node seen k times before, for every k a
            # path can hold: (k+1)·log₂(k+1) − k·log₂ k.
            seen = np.arange(config.max_length + 1, dtype=np.float64)
            self._xlog2x_gain = (_xlog2x_batch(seen + 1.0)
                                 - _xlog2x_batch(seen))
            # log₂ L for every token count L, for the compiled walks: they
            # compute no logarithm (``_observe`` takes the same values).
            with np.errstate(divide="ignore"):
                self._log2_of = np.log2(seen)
        elif self.mode == "fullpath":
            # The regression's L axis: 1, 2, ..., cap.
            self._positions = np.arange(1, self.cap + 1, dtype=np.float64)
        #: Expected rejections per accepted step at each node, capped by
        #: the forced hop (the widths policy's per-walker input), when the
        #: kernel keeps such a table and does not resolve its own steps.
        self._node_rejections = (None if kernel.resolves_walks
                                 else kernel.expected_rejections())
        if self._node_rejections is not None:
            self._node_rejections = np.minimum(
                self._node_rejections, float(config.max_trials_per_step))
        # The trial lanes outlive a call: their scratch is reused.
        self._lanes = _TrialLanes()

    # ------------------------------------------------------------------ #
    # Measurement: InCoM batch state, HuGE-D's whole-path recomputation
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

    def _cut_to_length(self, out: WalkBuffers) -> None:
        """HuGE-D's length rule over walks that ran to ``cap`` (=
        ``max_length``) or a dead end: each walk ends at the first token
        count ``L`` from ``min_length`` on at which ``R²`` of its entropy
        series against ``1..L`` falls below ``mu``, and everything past
        ``L`` is blanked as if never walked.

        The series grows one token at a time: the prefix's occurrence
        counts, in first-seen order, go to ``entropy_of_counts`` -- what
        ``entropy_of_sequence`` of the prefix computes from them -- and
        ``r_squared`` is read only where the rule reads it, scalar by
        scalar, so every value is the per-hop measurement's.
        """
        rule = self.length_rule
        paths, lengths, trials, arcs = out
        positions = self._positions
        series = np.empty(self.cap, dtype=np.float64)
        for j, walked in enumerate(lengths.tolist()):
            counts = {}
            # At ``walked`` tokens the walk stops whatever it measures.
            for length, node in enumerate(paths[j, :walked - 1].tolist(), 1):
                counts[node] = counts.get(node, 0) + 1
                series[length - 1] = entropy_of_counts(counts.values())
                # One token's R² is 1, never below mu.
                if length >= rule.min_length and r_squared(
                        series[:length], positions[:length]) < rule.mu:
                    lengths[j] = length
                    break
        past = np.arange(self.cap) >= lengths[:, None]
        paths[past] = -1
        arcs[past] = -1
        trials[past] = 0

    def _block_width(self, cur: np.ndarray, waited: np.ndarray,
                     spent: int, hops: int) -> np.ndarray:
        """The widths policy: trials to evaluate this superstep for each
        live walker (standing on ``cur``, ``waited`` rejections into its
        current step).  **Any** positive widths yield the same bytes --
        the caller clamps them to the forced-hop horizon and the scratch
        budget -- so this only trades lanes evaluated behind an accept
        against supersteps.

        A walker's block is one trial plus a share of the rejections it
        should expect where it stands: from the kernel's per-node table
        when it keeps one (``expected_rejections``, the HuGE kernels:
        trials at a node accept independently with its mean acceptance,
        so per-node expectations span ~0 at leaves to the cap at hubs),
        from the call's running rejections per accepted step otherwise -- zero for the kernels that never reject, which
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
        ``at`` tokens -- same decision order as the loop oracle: dead
        end, then the length rule."""
        done = self._degrees[nodes] == 0
        if self.mode == "incom":
            done |= self.length_rule.stop_mask(at, self._r_squared(idx, at))
        else:
            # fullpath walks to cap too: it is cut to length afterwards.
            done |= at >= self.cap
        return done

    def _superstep(self, cur, args, alive, previous, trials_at_step,
                   horizon: int, spent: int, hops: int):
        """One superstep of trial lanes: ``(sel, arc, trials, used)`` --
        the walkers that hop (positions in ``alive``), their arcs and step
        costs, and the lanes consumed; ``args`` and ``trials_at_step``
        advance in place."""
        # 1) The block.
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
        lanes = self._lanes
        lanes.layout(widths, ends)
        stream_at = args[alive]
        u1, u2 = lanes.uniforms(stream_at, begin)
        prev = previous[alive] if self.kernel.second_order else None
        arc, accepted = self.kernel.trial(lanes, cur, prev, u1, u2)
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
        return sel, arc[win], step_trials, int(used.sum())

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

        The walks run in one compiled call when the kernel
        ``resolves_walks``, on the NumPy trial lanes (:meth:`_run_lanes`)
        otherwise; ``fullpath`` walks are then cut to length
        (:meth:`_cut_to_length`).
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
        # A walker is forced to hop once max_trials_per_step trials of a
        # step were rejected, so its block never needs to reach further.
        horizon = cfg.max_trials_per_step + 1
        if self.mode == "incom":
            # InCoM's per-walker S and five moments, one row each.
            self._state = np.zeros((6, n), dtype=np.float64)
            (self._S, self._e_h, self._e_l, self._e_hl, self._e_h2,
             self._e_l2) = self._state
        if self.kernel.resolves_walks:
            # One compiled call runs every walker to termination, InCoM's
            # measurement and length rule included.
            measure = {} if self.mode != "incom" else dict(
                min_length=self.length_rule.min_length,
                mu=self.length_rule.mu, gain=self._xlog2x_gain,
                log2_of=self._log2_of, state=self._state)
            self.kernel.resolve_walks(
                np.ascontiguousarray(sources, dtype=np.int64), args,
                horizon, out, **measure)
        else:
            self._run_lanes(sources, args, horizon, out)
        if self.mode == "fullpath":
            self._cut_to_length(out)
        return out

    def _run_lanes(self, sources: np.ndarray, args: np.ndarray,
                   horizon: int, out: WalkBuffers) -> None:
        """:meth:`run_walks` on the NumPy trial lanes, into ``out``.

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
        if self.mode == "incom":
            # observe(source): prior count 0, one token on the path.
            self._observe(alive, np.zeros(n, dtype=np.int64), lengths)
        # Termination is a function of where a walker stands and what it
        # has measured, so it is decided once here and again only for the
        # walkers that hop; ``alive`` carries the rest across supersteps.
        alive = alive[~self._finished(alive, current, lengths)]

        # Supersteps, not trials: a block is never slower than one trial.
        max_iters = cap * (cfg.max_trials_per_step + 2) + 8
        spent = hops = 0   # this call's trials / accepted steps so far
        for _ in range(max_iters):
            if alive.size == 0:
                break
            cur = current[alive]
            sel, taken, step_trials, used = self._superstep(
                cur, args, alive, previous, trials_at_step, horizon,
                spent, hops)
            spent += used
            if sel.size == 0:
                continue
            # The hops, and the only walkers whose termination moved.
            idx = alive[sel]
            hops += int(sel.size)
            hop = self._indices[taken]
            pos = lengths[idx]
            if self.mode == "incom":
                # Occurrences of the accepted node on the path so far: the
                # batch form of InCoM's per-walker visit counters.  This
                # scan is O(current length) per step, bounded by
                # max_length (80 at paper scale); revisits are the
                # minority, so the hits are counted from their flat
                # positions rather than by summing rows.  A per-walker
                # hashed (walker, node) -> count table was prototyped and
                # lost to the scan on R-MAT-13 at a mean walk length of
                # 22 (0.24-0.30 s against 0.17-0.24 s per pass, with
                # 19 % of hops revisits); the simulated cost model still
                # credits the paper's O(1) InCoM update, which the
                # per-walker loop's dict counters realise literally.
                reach = int(pos.max())
                seen = np.flatnonzero(paths[idx, :reach] == hop[:, None])
                prior = np.bincount(seen // reach, minlength=idx.size)
            if self.kernel.second_order:
                previous[idx] = cur[sel]
            current[idx] = hop
            paths[idx, pos] = hop
            pos += 1
            lengths[idx] = pos
            if self.mode == "incom":
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


class DeferredWalkAccounting:
    """Walk-phase accounting from the buffers :meth:`BatchWalkRunner.run_walks`
    fills -- the one way vectorized walks reach ``WalkStats`` and the
    cluster metrics, whatever the execution.

    The cost model credits, at the machine a walker currently occupies:
    one compute unit per sampling trial, one local step per accepted
    step plus its measurement (one unit under InCoM, ``L`` units under
    HuGE-D's whole-path recomputation, ``L`` being the token count after
    the step), and one message per machine-crossing step --
    ``message_bytes``, plus ``BYTES_PER_FIELD`` per path token under
    ``fullpath`` (24 + 8L).  All of it is determined by the stored arc
    each step took (its source is where the step's trials ran) and, for
    ``fullpath``, by the step's column (``L`` = column + 1) -- so this
    class aggregates rounds into placement-free per-arc arrays (steps,
    trials and, in ``fullpath`` mode only, summed lengths) and maps them
    onto machines in one pass once the assignment is known.  Every
    counter is an integer-valued float, so the late application equals
    the loop oracle's increment-by-increment accounting bit for bit
    (pinned by the block-trial and executor parity suites).
    """

    def __init__(self, graph, mode: str, message_bytes: int) -> None:
        self._graph = graph
        self.mode = mode
        self.message_bytes = int(message_bytes)
        self._arc_steps = np.zeros(graph.num_stored_edges, dtype=np.int64)
        self._arc_trials = np.zeros(graph.num_stored_edges, dtype=np.int64)
        self._arc_lengths = (
            np.zeros(graph.num_stored_edges, dtype=np.int64)
            if mode == "fullpath" else None)

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
        if self._arc_lengths is not None:
            # A step written to column s leaves the path s + 1 tokens long.
            lengths = np.nonzero(step)[1] + 1
            self._arc_lengths += np.bincount(
                arcs, weights=lengths, minlength=num_arcs).astype(np.int64)
        return int(trials.sum()), int(arcs.size)

    def apply(self, assignment: np.ndarray, metrics) -> None:
        """Credit everything observed so far against ``assignment``."""
        m = metrics.num_machines
        graph = self._graph
        src = assignment[np.repeat(np.arange(graph.num_nodes), graph.degrees)]
        dst = assignment[graph.indices]
        trials_m = np.bincount(src, weights=self._arc_trials, minlength=m)
        steps_m = np.bincount(src, weights=self._arc_steps, minlength=m)
        # Measurement units per arc: O(1) per step under InCoM, the path
        # length under the whole-path recomputation.
        measured = {"incom": self._arc_steps,
                    "fullpath": self._arc_lengths}.get(self.mode)
        if measured is not None:
            measured_m = np.bincount(src, weights=measured, minlength=m)
        for machine in np.flatnonzero(trials_m):
            # One compute unit per sampling trial.
            metrics.record_compute(int(machine), float(trials_m[machine]))
        for machine in np.flatnonzero(steps_m):
            metrics.record_local_step(int(machine), int(steps_m[machine]))
            if measured is not None:
                metrics.record_compute(int(machine),
                                       float(measured_m[machine]))
        crossing = (src != dst) & (self._arc_steps > 0)
        if crossing.any():
            pair = src[crossing] * m + dst[crossing]
            arc_bytes = self._arc_steps[crossing] * self.message_bytes
            if self._arc_lengths is not None:
                arc_bytes += BYTES_PER_FIELD * self._arc_lengths[crossing]
            counts = np.bincount(pair, weights=self._arc_steps[crossing],
                                 minlength=m * m)
            sizes = np.bincount(pair, weights=arc_bytes, minlength=m * m)
            for p in np.flatnonzero(counts):
                metrics.record_messages(int(counts[p]), int(sizes[p]),
                                        src=int(p // m), dst=int(p % m))
