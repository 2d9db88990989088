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
  second-order kernels (node2vec, HuGE, HuGE+) via batched rejection
  sampling, and every superstep's compute/messages credited to the
  simulated :class:`repro.runtime.cluster.Cluster` so the paper's cost
  accounting is byte-identical to the loop engine's.

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

from typing import List, Optional

import numpy as np

from repro.graph.csr import CSRGraph
from repro.runtime.message import BYTES_PER_FIELD, IncrementalMessage
from repro.utils.rng import (
    SeedLike,
    default_rng,
    stream_uniforms,
    walker_stream_keys,
)
from repro.utils.validation import check_positive
from repro.walks.alias_sampling import FirstOrderAliasSampler
from repro.walks.corpus import Corpus
from repro.walks.termination import WalkLengthRule

#: Constant InCoM walker-message size (80 bytes, paper §3.1).
_INCOM_MESSAGE_BYTES = IncrementalMessage(0, 0, 0).byte_size()

#: Lanes (live walkers x block width) a superstep may evaluate; keeps the
#: trial block's scratch O(round).
_BLOCK_SCRATCH_LANES = 1 << 18


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


class BatchWalkRunner:
    """Lock-step walker batch for one :class:`DistributedWalkEngine`.

    Owns the per-graph precomputations (flat weight cumsums, per-arc HuGE
    acceptance table, alias tables via the kernel) and runs one round of
    walks per :meth:`run_round` call, mutating the same ``corpus``/
    ``stats``/``walk_machines`` structures the loop backend fills -- the
    engine treats both backends interchangeably.
    """

    def __init__(self, graph: CSRGraph, cluster, config, kernel,
                 routine_message_bytes: int,
                 tables: Optional[dict] = None) -> None:
        if config.mode == "fullpath":
            raise ValueError(
                "the fullpath (HuGE-D) measurement is deliberately O(L) per "
                "step and stays on the loop backend; use backend='auto' or "
                "'loop' for mode='fullpath'"
            )
        tables = tables or {}
        self.graph = graph
        self.cluster = cluster
        self.config = config
        self.kernel = kernel
        self.kind = kernel.name
        self.info_mode = config.mode != "routine"
        self.length_rule = (
            WalkLengthRule(mu=config.mu, min_length=config.min_length,
                           max_length=config.max_length)
            if self.info_mode else None
        )
        self.message_bytes = (
            _INCOM_MESSAGE_BYTES if self.info_mode else routine_message_bytes
        )
        self._indptr = graph.indptr
        self._indices = graph.indices
        self._degrees = graph.degrees
        self._assignment = cluster.assignment

        # Kernel-specific tables.  All values are produced by (or shared
        # with) the scalar kernel code, keeping the two backends bit-equal.
        # ``tables`` lets the process executor hand every worker one
        # precomputed copy instead of paying the build per process.
        self._row_cumsum: Optional[np.ndarray] = None
        if graph.is_weighted and self.kind != "node2vec-alias":
            self._row_cumsum = tables.get("row_cumsum")
            if self._row_cumsum is None:
                self._row_cumsum = weighted_row_cumsum(graph)
        if self.kind in ("huge", "huge+"):
            self._arc_accept = tables.get("arc_accept")
            if self._arc_accept is None:
                self._arc_accept = kernel.arc_acceptance_table()
        elif self.kind == "node2vec-alias":
            sampler = kernel.sampler
            fo = sampler._first_order
            self._fo_accept = fo._accept
            self._fo_alias = fo._alias_local
            self._so_offsets = sampler._table_offsets
            self._so_accept = sampler._accept
            self._so_alias = sampler._alias_local
        # Scratch path/length buffers reused across serial rounds, so the
        # per-round flush writes through one stable padded matrix into the
        # corpus's flat token block instead of allocating per round.
        self._scratch_paths: Optional[np.ndarray] = None
        self._scratch_lengths: Optional[np.ndarray] = None

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
        pn = prior.astype(np.float64)
        s = self._S[idx] + (_xlog2x_batch(pn + 1.0) - _xlog2x_batch(pn))
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

    def _propose(self, cur: np.ndarray, u1: np.ndarray):
        """Uniform→candidate map shared by the rejection kernels; returns
        ``(candidate, flat_arc_index)`` -- ``propose_with_uniform``'s
        candidate, with its local index already offset by the row start."""
        deg = self._degrees[cur]
        starts = self._indptr[cur]
        if self._row_cumsum is None:
            k = (u1 * deg).astype(np.int64)
        else:
            totals = self._row_cumsum[starts + deg - 1]
            k = _bisect_rows(self._row_cumsum, starts, deg, u1 * totals,
                             right=True)
        np.minimum(k, deg - 1, out=k)
        k += starts
        return self._indices[k], k

    def _trial(self, cur: np.ndarray, prev: np.ndarray, u1: np.ndarray,
               u2: np.ndarray, forced: np.ndarray):
        """One batched sampling trial: ``(candidates, accepted_mask)``."""
        if self.kind == "node2vec-alias":
            return self._trial_alias(cur, prev, u1, u2)
        cand, arc = self._propose(cur, u1)
        if self.kind == "deepwalk":
            return cand, np.ones(cur.size, dtype=bool)
        if self.kind in ("huge", "huge+"):
            return cand, (u2 < self._arc_accept[arc]) | forced
        # node2vec: KnightKing's rejection envelope, batched.
        kernel = self.kernel
        first = prev < 0
        adjacent = np.zeros(cur.size, dtype=bool)
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
        y = u2 * kernel._envelope
        return cand, (pi >= y) | forced

    def _trial_alias(self, cur: np.ndarray, prev: np.ndarray,
                     u1: np.ndarray, u2: np.ndarray):
        """Batched alias-table draw (never rejects)."""
        cand = np.empty(cur.size, dtype=np.int64)
        first = prev < 0
        fo = np.flatnonzero(first)
        if fo.size:
            deg = self._degrees[cur[fo]]
            slot = np.minimum((u1[fo] * deg).astype(np.int64), deg - 1)
            flat = self._indptr[cur[fo]] + slot
            use_alias = u2[fo] >= self._fo_accept[flat]
            slot = np.where(use_alias, self._fo_alias[flat], slot)
            cand[fo] = self._indices[self._indptr[cur[fo]] + slot]
        so = np.flatnonzero(~first)
        if so.size:
            # Flat index of arc (prev, cur): position of cur within N(prev).
            pos = _locate_in_rows(self._indptr, self._indices,
                                  prev[so], cur[so])
            arc = self._indptr[prev[so]] + pos
            t_start = self._so_offsets[arc]
            size = (self._so_offsets[arc + 1] - t_start).astype(np.int64)
            slot = np.minimum((u1[so] * size).astype(np.int64), size - 1)
            use_alias = u2[so] >= self._so_accept[t_start + slot]
            slot = np.where(use_alias, self._so_alias[t_start + slot], slot)
            cand[so] = self._indices[self._indptr[cur[so]] + slot]
        return cand, np.ones(cur.size, dtype=bool)

    def _block_width(self, spent: int, hops: int, alive: int) -> int:
        """Trials per live walker in the next superstep's block: the
        call's running trials per accepted step, rounded up (a kernel that
        never rejects stays at 1 and draws only the uniforms it consumes),
        never past the forced-hop horizon or the scratch budget.  Any
        width yields the same bytes."""
        width = -(-spent // hops) if hops else 1
        return max(1, min(width, self.config.max_trials_per_step + 1,
                          _BLOCK_SCRATCH_LANES // alive))

    # ------------------------------------------------------------------ #
    # One round
    # ------------------------------------------------------------------ #

    def run_round(self, sources: np.ndarray, round_idx: int, corpus,
                  stats, walk_machines: List[int]) -> None:
        """Walk every source once, lock-step, with full cost accounting."""
        n = sources.size
        if n == 0:
            return
        cap = (self.config.max_length if self.info_mode
               else self.config.walk_length)
        if self._scratch_paths is None or self._scratch_paths.shape != (n, cap):
            self._scratch_paths = np.empty((n, cap), dtype=np.int64)
            self._scratch_lengths = np.empty(n, dtype=np.int64)
        walk_ids = round_idx * n + np.arange(n, dtype=np.int64)
        paths, lengths = self.run_walks(sources, walk_ids, stats,
                                        paths_out=self._scratch_paths,
                                        lengths_out=self._scratch_lengths)
        # Flush in walk-id order (the canonical order of the walker
        # protocol; the loop backend emits the same order).
        corpus.add_walks(paths, lengths)
        stats.total_walks += n
        stats.walk_lengths.extend(lengths.tolist())
        walk_machines.extend(self._assignment[sources].tolist())

    def run_walks(self, sources: np.ndarray, walk_ids: np.ndarray, stats,
                  paths_out: Optional[np.ndarray] = None,
                  lengths_out: Optional[np.ndarray] = None,
                  trials_out: Optional[np.ndarray] = None):
        """Advance one walk per source to termination, lock-step.

        The superstep core shared by the serial round and the walk
        workers: walker streams are keyed by the caller-supplied
        ``walk_ids`` (globally unique, so a worker holding a slice of a
        round produces exactly the walks the whole-round call would).
        Returns ``(paths, lengths)`` -- written into
        ``paths_out``/``lengths_out`` when given (the serial round's
        scratch or the executor's shared-memory slots) -- and credits
        trials/steps to ``stats`` and compute/messages to the cluster
        metrics.

        Passing ``trials_out`` (an int array of the paths shape) switches
        to **deferred accounting**, the walk workers' mode: the
        walker advances exactly as before (same streams, same uniforms,
        same termination), but nothing is recorded against ``stats`` or
        the cluster -- instead ``trials_out[i, s]`` receives the number of
        sampling trials (rejections + the accepted or forced one) spent to
        produce step ``s`` of walk ``i``.  Trials, steps, compute and
        message metrics are pure functions of ``(paths, lengths, trials)``
        and the node assignment, so a consumer that learns the assignment
        *later* (the streaming executor overlaps partitioning with
        sampling) can reconstruct them bit for bit --
        :class:`repro.runtime.pipeline.DeferredWalkAccounting` is that
        consumer, and the pipeline parity suite pins the equality.
        """
        cfg = self.config
        cluster = self.cluster
        metrics = cluster.metrics
        num_machines = cluster.num_machines
        n = sources.size
        cap = cfg.max_length if self.info_mode else cfg.walk_length
        deferred = trials_out is not None
        if deferred:
            trials_out[...] = 0

        keys = walker_stream_keys(cluster.walk_seed_root, walk_ids)
        counters = np.zeros(n, dtype=np.uint64)
        if paths_out is None:
            paths = np.full((n, cap), -1, dtype=np.int64)
        else:
            paths = paths_out
            paths[...] = -1
        paths[:, 0] = sources
        if lengths_out is None:
            lengths = np.ones(n, dtype=np.int64)
        else:
            lengths = lengths_out
            lengths[...] = 1
        current = sources.astype(np.int64).copy()
        previous = np.full(n, -1, dtype=np.int64)
        trials_at_step = np.zeros(n, dtype=np.int64)
        active = np.ones(n, dtype=bool)
        if self.info_mode:
            self._S = np.zeros(n, dtype=np.float64)
            self._e_h = np.zeros(n, dtype=np.float64)
            self._e_l = np.zeros(n, dtype=np.float64)
            self._e_hl = np.zeros(n, dtype=np.float64)
            self._e_h2 = np.zeros(n, dtype=np.float64)
            self._e_l2 = np.zeros(n, dtype=np.float64)
            # observe(source): prior count 0, one token on the path.
            self._observe(np.arange(n), np.zeros(n, dtype=np.int64), lengths)

        # Supersteps, not trials: a block is never slower than one trial.
        max_iters = cap * (cfg.max_trials_per_step + 2) + 8
        spent = hops = 0   # this call's trials / accepted steps so far
        for _ in range(max_iters):
            alive = np.flatnonzero(active)
            if alive.size == 0:
                break
            # 1) Termination sweep -- same decision order as the loop
            #    engine's _walk_finished: dead end, then the length rule.
            cur = current[alive]
            at = lengths[alive]
            done = self._degrees[cur] == 0
            if self.info_mode:
                done |= self.length_rule.stop_mask(
                    at, self._r_squared(alive, at))
            else:
                done |= at >= cfg.walk_length
            if done.any():
                active[alive[done]] = False
                keep = ~done
                alive, cur, at = alive[keep], cur[keep], at[keep]
            if alive.size == 0:
                continue

            # 2) A block of ``width`` trials per remaining walker.  A
            #    walker stands still between rejections and its stream is
            #    a pure function of (key, counter), so lane t is the trial
            #    it would run t supersteps from now: counters c+2t (propose)
            #    and c+2t+1 (accept), forced once trials_at_step + t hits
            #    the cap.  The first accepted lane decides the hop; lanes
            #    behind it are dropped, their counters never consumed.
            width = self._block_width(spent, hops, alive.size)
            lanes = np.arange(2 * width, dtype=np.uint64).reshape(width, 2).T
            u1, u2 = stream_uniforms(
                keys[alive][:, None],
                counters[alive][:, None] + lanes[:, None, :])
            forced = np.arange(width) >= (
                cfg.max_trials_per_step - trials_at_step[alive])[:, None]
            cand, accepted = self._trial(
                np.repeat(cur, width), np.repeat(previous[alive], width),
                u1.ravel(), u2.ravel(), forced.ravel())
            # Lanes are walker-major, so a walker's first accepted lane is
            # the head of its run in the sorted list of accepted lanes.
            lane = np.flatnonzero(accepted)
            owner = lane // width
            head = np.ones(lane.size, dtype=bool)
            np.not_equal(owner[1:], owner[:-1], out=head[1:])
            win = lane[head]     # flat lane that decides each hop
            sel = owner[head]    # its walker, as a position in ``alive``
            used = np.full(alive.size, width, dtype=np.int64)
            used[sel] = win - sel * width + 1
            counters[alive] += (2 * used).astype(np.uint64)
            spent += int(used.sum())

            if deferred:
                # Trials spent towards the token at position lengths[i]
                # (the position the accepted step will eventually fill;
                # rejected trials accumulate on the same slot because the
                # walker does not move between rejections).
                trials_out[alive, at] += used
            else:
                trial_machines = self._assignment[cur]
                # Integer-valued float sums: exact, so crediting a block
                # at once equals crediting its trials one superstep each.
                counts = np.bincount(trial_machines, weights=used,
                                     minlength=num_machines)
                for m in np.flatnonzero(counts):
                    metrics.record_compute(int(m), float(counts[m]))

            # Accepting walkers are reset to 0 below.
            trials_at_step[alive] += width
            if sel.size == 0:
                continue
            idx = alive[sel]
            hops += int(sel.size)
            hop = cand[win]
            src_m = None if deferred else trial_machines[sel]
            pos = at[sel]
            if self.info_mode:
                # Occurrences of the accepted node on the path so far: the
                # batch form of InCoM's per-walker visit counters.  This
                # scan is O(current length) per step -- bounded by
                # max_length (80 at paper scale), where one vectorised
                # comparison row beats any per-walker hash structure; the
                # simulated cost model still credits the paper's O(1)
                # InCoM update, which the scalar backend's dict counters
                # realise literally.
                prior = (paths[idx, :int(pos.max())]
                         == hop[:, None]).sum(axis=1)
            previous[idx] = cur[sel]
            current[idx] = hop
            paths[idx, pos] = hop
            pos += 1
            lengths[idx] = pos
            trials_at_step[idx] = 0
            if deferred:
                # Steps, InCoM measurement cost and message crossings are
                # all recoverable from (paths, lengths, trials) once the
                # assignment is known; only the InCoM state advances here.
                if self.info_mode:
                    self._observe(idx, prior, pos)
                continue
            step_counts = np.bincount(src_m, minlength=num_machines)
            for m in np.flatnonzero(step_counts):
                metrics.record_local_step(int(m), int(step_counts[m]))
            if self.info_mode:
                self._observe(idx, prior, pos)
                # InCoM measurement cost: O(1) per accepted step.
                for m in np.flatnonzero(step_counts):
                    metrics.record_compute(int(m), float(step_counts[m]))
            dst_m = self._assignment[hop]
            crossing = src_m != dst_m
            if crossing.any():
                pair = src_m[crossing] * num_machines + dst_m[crossing]
                pair_counts = np.bincount(
                    pair, minlength=num_machines * num_machines)
                for p in np.flatnonzero(pair_counts):
                    c = int(pair_counts[p])
                    metrics.record_messages(
                        c, c * self.message_bytes,
                        src=int(p // num_machines), dst=int(p % num_machines),
                    )
        else:
            raise RuntimeError(
                f"batched walk round did not converge in {max_iters} "
                "supersteps"
            )
        if not deferred:
            stats.total_trials += spent
            stats.total_steps += hops
        return paths, lengths
