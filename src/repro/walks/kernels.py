"""Walk kernels: DeepWalk, node2vec (rejection and alias tables), HuGE, HuGE+.

Each kernel proposes/accepts the next node for a walker positioned at
``u``.  All kernels share the *rejection* idiom of the paper: a candidate
drawn from ``u``'s adjacency row is accepted with a kernel-specific
probability, and a rejection leaves the walker at ``u`` to retry
(KnightKing's rejection sampling for node2vec; HuGE's
walking-backtracking strategy [30]).  Engines count every trial as one
unit of per-machine compute, which is what makes the acceptance-rate
differences between kernels visible in the simulated cost model.

The walk kernel interface
-------------------------
This module is the only place that knows which kernel is running; the
engine, the executor and the dynamic updater talk to the interface:

* :func:`make_kernel` ``(config, graph, tables=None)`` -- the one
  constructor.  It picks the class ``config.kernel`` names and passes
  the config fields that class reads (``p``/``q``).  Given ``tables``
  (shared-memory views in the walk workers) are used as they are;
  otherwise they are built on first use, so a kernel driven only through
  its scalar reference never pays for them.
* ``tables`` -- every flat array :meth:`~WalkKernel.trial` reads, keyed by
  name; the process executor shares this dict once for all workers.
* ``second_order`` (the transition reads the walker's previous node) and
  ``neighbor_sensitive`` (acceptance reads the candidate's adjacency,
  which is what the dynamic walk audit expands by).
* :meth:`~WalkKernel.expected_rejections` -- per-node expected rejections
  per accepted step, or ``None`` (the runner's widths-policy input).
* :meth:`~WalkKernel.trial` ``(lanes, cur, prev, u1, u2) -> (arc,
  accepted)`` -- one batched block of trials over flat lanes.
* ``step_with_uniforms(current, previous, u1, u2, forced)`` -- the scalar
  reference: one trial, the accepted node or ``None``.  The per-walker
  loop oracle (``tests/oracles/walks.py``) runs it and the lane-contract
  tests compare ``trial`` against it.
* ``resolves_steps`` / :meth:`~HuGEKernel.resolve_steps` ``(cur, args,
  horizon) -> (arc, trials)`` -- every live walker's whole step in one
  compiled call (:mod:`repro.native`), in place of the trial lanes;
  the step-contract tests hold it to iterated ``step_with_uniforms``.
  :meth:`~HuGEKernel.resolve_walks` runs each walker from its source to
  termination in one call (routine and InCoM measurement only).

Both paths consume the same two uniforms per trial from the walker's
private counter stream (``u1`` proposes, ``u2`` accepts) with the same
IEEE operations and the same libm ``tanh``, so lock-step rounds and the
per-walker loop oracle produce byte-identical walks.  ``forced`` marks the
unconditional hop after ``max_trials_per_step`` rejections: the proposal
is drawn the same way and accepted outright.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

import numpy as np

from repro import native
from repro.graph.csr import CSRGraph
from repro.partition.galloping import galloping_intersect_size
from repro.utils.validation import check_positive
from repro.walks.alias_sampling import SecondOrderAliasSampler


def propose_with_uniform(
    graph: CSRGraph,
    node: int,
    u1: float,
    cumsum_cache: Optional[Dict[int, np.ndarray]] = None,
) -> Tuple[int, int]:
    """Map one uniform onto a neighbour of ``node``: ``(candidate, k)``.

    ``k`` is the candidate's index within ``node``'s adjacency slice (the
    flat arc index is ``indptr[node] + k``), which the HuGE kernels use for
    table lookups.  Unweighted: ``k = floor(u1 · deg)``; weighted: inverse
    CDF over the per-node weight cumsum, uniform when every weight of the
    row is zero (the alias tables' degenerate-slice rule).  Both clamp to
    ``deg - 1`` so a rounding artefact at ``u1 → 1`` cannot index out of
    range -- :meth:`WalkKernel.propose` applies the identical clamp.
    """
    deg = graph.degree(node)
    if deg == 0:
        raise ValueError(f"node {node} has no neighbours to walk to")
    if not graph.is_weighted:
        k = int(u1 * deg)
    else:
        if cumsum_cache is not None and node in cumsum_cache:
            cumsum = cumsum_cache[node]
        else:
            cumsum = np.cumsum(graph.neighbor_weights(node))
            if cumsum_cache is not None:
                cumsum_cache[node] = cumsum
        if cumsum[-1] <= 0:
            k = int(u1 * deg)
        else:
            k = int(np.searchsorted(cumsum, u1 * cumsum[-1], side="right"))
    if k >= deg:
        k = deg - 1
    return int(graph.indices[graph.indptr[node] + k]), k


def weighted_row_cumsum(graph: CSRGraph) -> np.ndarray:
    """Flat per-row weight cumsums (the weighted proposal's draw table).

    One ``float64[num_stored_edges]`` array holding each adjacency row's
    ``np.cumsum`` -- per row, not global, so every value matches the
    scalar per-node caches of :func:`propose_with_uniform` bit for bit.
    """
    cum = np.empty(graph.num_stored_edges, dtype=np.float64)
    indptr = graph.indptr
    for u in range(graph.num_nodes):
        s, e = int(indptr[u]), int(indptr[u + 1])
        if s != e:
            cum[s:e] = np.cumsum(graph.weights[s:e])
    return cum


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


def _reverse_arcs(graph: CSRGraph, source: np.ndarray) -> Optional[np.ndarray]:
    """``rev`` with arc ``rev[k]`` the reverse of stored arc ``k``, or
    ``None`` unless the stored arcs are a symmetric *set*.

    Sorting the arcs by ``(target, source)`` lines the reversed arcs up
    with the CSR order exactly when every arc's reverse is stored, which
    is then verified arc by arc in O(E) -- so a returned permutation is
    certified, whatever ``graph.directed`` claims.  Rows must be strictly
    increasing as well: with a duplicated arc the per-arc counts below
    are no longer symmetric in their endpoints.
    """
    indices = graph.indices
    inside_row = source[1:] == source[:-1]
    if np.any(inside_row & (indices[1:] <= indices[:-1])):
        return None
    rev = np.lexsort((source, indices))
    if (np.array_equal(indices[rev], source)
            and np.array_equal(source[rev], indices)):
        return rev
    return None


def common_neighbor_counts_per_arc(graph: CSRGraph) -> np.ndarray:
    """``|N(u) ∩ N(v)|`` for every stored arc ``(u, v)``.

    Vectorised per source node with a membership mask and segmented sums:
    an arc ``(u, v)`` is counted by gathering ``N(v)`` against the bitmap
    of ``N(u)``.  When the stored arcs are symmetric (every undirected
    graph :meth:`CSRGraph.from_edges` builds) only the arcs whose *target*
    is the smaller endpoint by ``(degree, id)`` are scanned, and each
    count is mirrored onto the reverse arc through one ``lexsort``
    permutation (:func:`_reverse_arcs`): ``Σ_edges min(deg)`` gathered
    wedges instead of ``Σ_arcs deg(v)`` -- 3.02 M against 19.0 M on a
    heavy-tailed R-MAT-13 graph of the benchmark, 0.20 s -> 0.06 s, and
    the leaf-heavy majority of nodes (3 497 of 5 655 there) own no
    scanned arc and are skipped.
    Directed or otherwise asymmetric inputs scan every arc through the
    same loop.  Results are exact integer counts, identical to
    :func:`galloping_intersect_size` per arc.

    The table is memoised on the (immutable) graph: MPGP's second-order
    proximity and the HuGE kernels' acceptance precompute consume the same
    quantity, and a DistGER run needs it in both the partition and the
    walk phase -- one pass serves both.
    """
    cached = graph.__dict__.get("_arc_common_neighbors")
    if cached is not None:
        return cached
    indptr, indices, degrees = graph.indptr, graph.indices, graph.degrees
    source = np.repeat(np.arange(graph.num_nodes, dtype=np.int64), degrees)
    rev = _reverse_arcs(graph, source)
    if rev is None:
        scanned = np.arange(indices.size)
    else:
        deg_u, deg_v = degrees[source], degrees[indices]
        scanned = np.flatnonzero(
            (deg_v < deg_u) | ((deg_v == deg_u) & (indices <= source)))
    out = np.zeros(indices.size, dtype=np.int64)
    mark = np.zeros(graph.num_nodes, dtype=bool)
    # Scanned arcs are in CSR order, so each source owns one run of them.
    owners, first = np.unique(source[scanned], return_index=True)
    bounds = np.append(first, scanned.size).tolist()
    for i, u in enumerate(owners.tolist()):
        arcs = scanned[bounds[i]:bounds[i + 1]]
        row = indices[indptr[u]:indptr[u + 1]]
        mark[row] = True
        nbrs = indices[arcs]
        starts = indptr[nbrs]
        sizes = indptr[nbrs + 1] - starts
        total = int(sizes.sum())
        seg = np.zeros(nbrs.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=seg[1:])
        if total:
            # Flat gather of every neighbour-of-neighbour id.
            flat = np.repeat(starts - seg[:-1], sizes) + np.arange(total)
            hits = mark[indices[flat]]
            csum = np.zeros(total + 1, dtype=np.int64)
            np.cumsum(hits, out=csum[1:])
            out[arcs] = csum[seg[1:]] - csum[seg[:-1]]
        mark[row] = False
    if rev is not None:
        out[rev[scanned]] = out[scanned]
    # The cached array is handed to every consumer; freeze it so an
    # accidental in-place edit raises instead of poisoning later runs.
    out.setflags(write=False)
    graph.__dict__["_arc_common_neighbors"] = out
    return out


class WalkKernel:
    """The interface every kernel implements (see the module docstring).

    The base class owns what the kernels share: the proposal -- uniform,
    or weight-proportional through the ``row_cumsum`` table -- in its
    scalar (:func:`propose_with_uniform`) and batched (:meth:`propose`)
    forms, and the table plumbing.  Subclasses set the class attributes,
    :meth:`step_with_uniforms` and :meth:`trial`, and extend
    :meth:`_build_tables` with whatever else their trial reads.
    """

    name = ""
    message_fields = 3  # [walk_id, steps, node_id]
    second_order = False
    neighbor_sensitive = False
    #: Whether :meth:`resolve_steps` replaces the runner's trial lanes.
    resolves_steps = False
    #: :class:`~repro.walks.engine.WalkConfig` fields the constructor
    #: takes as keyword arguments (:func:`make_kernel` passes them).
    config_fields: Tuple[str, ...] = ()

    def __init__(self, graph: CSRGraph,
                 tables: Optional[Dict[str, np.ndarray]] = None) -> None:
        self.graph = graph
        self._tables = None if tables is None else dict(tables)
        self._cumsum_cache: Dict[int, np.ndarray] = {}
        self._indptr = graph.indptr
        self._indices = graph.indices
        self._degrees = graph.degrees
        self._degrees_f = graph.degrees.astype(np.float64)

    @property
    def tables(self) -> Dict[str, np.ndarray]:
        """Every flat array :meth:`trial` reads, built on first use."""
        if self._tables is None:
            self._tables = self._build_tables()
        return self._tables

    def _build_tables(self) -> Dict[str, np.ndarray]:
        if self.graph.is_weighted:
            return {"row_cumsum": weighted_row_cumsum(self.graph)}
        return {}

    def expected_rejections(self) -> Optional[np.ndarray]:
        """Expected rejections per accepted step at every node, or
        ``None`` when the kernel keeps no per-node table."""
        return None

    def propose(self, lanes, cur: np.ndarray, u1: np.ndarray) -> np.ndarray:
        """Batched :func:`propose_with_uniform`: per lane, the flat arc
        index of the candidate (its local index already offset by the row
        start).  Row start and degree are gathered once per walker
        (``cur``) and expanded per lane; uses scratch rows 0-1 and
        returns row 1 on unweighted graphs."""
        starts = self._indptr[cur]
        last = starts + self._degrees[cur] - 1
        if self.graph.is_weighted:
            cumsum = self.tables["row_cumsum"]
            starts = lanes.expand(starts, 0)
            last = lanes.expand(last, 1)
            total = cumsum[last]
            arc = _bisect_rows(cumsum, starts, last - starts + 1,
                               u1 * total, right=True)
            flat = np.flatnonzero(total <= 0)
            if flat.size:
                # All-zero-weight rows: uniform, as the scalar proposal.
                arc[flat] = (u1[flat] * (last[flat] - starts[flat] + 1)
                             ).astype(np.int64)
            arc += starts
            return np.minimum(arc, last, out=arc)
        x = lanes.row(0, np.float64)
        np.multiply(u1, lanes.expand(self._degrees_f[cur], 0), out=x)
        arc = lanes.row(1)
        np.copyto(arc, x, casting="unsafe")     # truncation, as astype
        arc += lanes.expand(starts, 0)
        return np.minimum(arc, lanes.expand(last, 0), out=arc)

    def trial(self, lanes, cur: np.ndarray, prev: Optional[np.ndarray],
              u1: np.ndarray, u2: np.ndarray):
        """One block of sampling trials: ``(arc, accepted)`` per lane --
        the flat index of the proposed arc and whether the kernel takes it
        (the forced hop is the caller's).  ``cur``/``prev`` are per
        walker (``prev`` only for ``second_order`` kernels); candidate ids
        are the caller's to gather, for the lanes that win."""
        raise NotImplementedError

    def step_with_uniforms(self, current: int, previous: int,
                           u1: float, u2: float,
                           forced: bool) -> Optional[int]:
        raise NotImplementedError


class DeepWalkKernel(WalkKernel):
    """First-order uniform walk (DeepWalk [42]); never rejects."""

    name = "deepwalk"

    def step_with_uniforms(self, current: int, previous: int,
                           u1: float, u2: float, forced: bool) -> Optional[int]:
        candidate, _ = propose_with_uniform(self.graph, current, u1,
                                            self._cumsum_cache)
        return candidate  # first-order walks never reject

    def trial(self, lanes, cur, prev, u1, u2):
        arc = self.propose(lanes, cur, u1)
        accepted = lanes.flags()
        accepted[...] = True
        return arc, accepted


class Node2VecKernel(WalkKernel):
    """Second-order node2vec walk via rejection sampling (paper §2.1/§2.2).

    The envelope is ``Q(u) = max(1/p, 1, 1/q)``; a uniform candidate ``v``
    is accepted iff ``π_uv >= y`` for ``y ~ U[0, Q)`` with ``π_uv`` equal to
    ``1/p`` (return to the previous node), ``1`` (candidate adjacent to the
    previous node) or ``1/q`` (outward move) -- KnightKing's O(1)-per-trial
    scheme that avoids scanning the out-edges.
    """

    name = "node2vec"
    message_fields = 4  # [walk_id, steps, node_id, prev_node_id]
    second_order = True
    config_fields = ("p", "q")

    def __init__(self, graph: CSRGraph, p: float = 1.0, q: float = 1.0,
                 tables: Optional[Dict[str, np.ndarray]] = None) -> None:
        check_positive("p", p)
        check_positive("q", q)
        super().__init__(graph, tables)
        self.p = p
        self.q = q
        self._envelope = max(1.0 / p, 1.0, 1.0 / q)

    def _pi(self, previous: int, candidate: int) -> float:
        if previous < 0:
            return 1.0  # first step is first-order
        if candidate == previous:
            return 1.0 / self.p
        if self.graph.has_edge(previous, candidate):
            return 1.0
        return 1.0 / self.q

    def step_with_uniforms(self, current: int, previous: int,
                           u1: float, u2: float, forced: bool) -> Optional[int]:
        candidate, _ = propose_with_uniform(self.graph, current, u1,
                                            self._cumsum_cache)
        if forced:
            return candidate
        y = u2 * self._envelope
        if self._pi(previous, candidate) >= y:
            return candidate
        return None

    def trial(self, lanes, cur, prev, u1, u2):
        # KnightKing's rejection envelope, batched.
        arc = self.propose(lanes, cur, u1)
        accepted = lanes.flags()
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
            np.where(cand == prev, 1.0 / self.p,
                     np.where(adjacent, 1.0, 1.0 / self.q)),
        )
        np.greater_equal(pi, u2 * self._envelope, out=accepted)
        return arc, accepted


class Node2VecAliasKernel(WalkKernel):
    """node2vec over precomputed alias tables (the pre-KnightKing design).

    Drop-in alternative to the rejection-sampling :class:`Node2VecKernel`:
    same walk distribution, never rejects, but pays the
    :class:`~repro.walks.alias_sampling.SecondOrderAliasSampler` setup and
    memory.  Its tables are the sampler's five flat arrays; the sampler
    itself is only built when the kernel has to build them or take a
    scalar step.
    """

    name = "node2vec-alias"
    message_fields = 4  # [walk_id, steps, node_id, prev_node_id]
    second_order = True
    config_fields = ("p", "q")

    def __init__(self, graph: CSRGraph, p: float = 1.0, q: float = 1.0,
                 tables: Optional[Dict[str, np.ndarray]] = None) -> None:
        check_positive("p", p)
        check_positive("q", q)
        super().__init__(graph, tables)
        self.p = p
        self.q = q
        self._sampler: Optional[SecondOrderAliasSampler] = None

    @property
    def sampler(self) -> SecondOrderAliasSampler:
        if self._sampler is None:
            self._sampler = SecondOrderAliasSampler(self.graph, p=self.p,
                                                    q=self.q)
        return self._sampler

    def _build_tables(self) -> Dict[str, np.ndarray]:
        return self.sampler.export_tables()

    def step_with_uniforms(self, current: int, previous: int,
                           u1: float, u2: float, forced: bool) -> Optional[int]:
        # Alias tables never reject, so ``forced`` can never arise.
        return self.sampler.sample_step_with_uniforms(current, previous, u1, u2)

    def trial(self, lanes, cur, prev, u1, u2):
        """Batched alias-table draw (never rejects)."""
        tables = self.tables
        indptr = self._indptr
        cur = lanes.expand(cur, 0)
        prev = lanes.expand(prev, 1)
        arc = np.empty(lanes.total, dtype=np.int64)
        first = prev < 0
        fo = np.flatnonzero(first)
        if fo.size:
            deg = self._degrees[cur[fo]]
            slot = np.minimum((u1[fo] * deg).astype(np.int64), deg - 1)
            flat = indptr[cur[fo]] + slot
            use_alias = u2[fo] >= tables["fo_accept"][flat]
            slot = np.where(use_alias, tables["fo_alias"][flat], slot)
            arc[fo] = indptr[cur[fo]] + slot
        so = np.flatnonzero(~first)
        if so.size:
            offsets = tables["so_offsets"]
            # Flat index of arc (prev, cur): position of cur within N(prev).
            pos = _locate_in_rows(indptr, self._indices, prev[so], cur[so])
            table = indptr[prev[so]] + pos
            t_start = offsets[table]
            size = (offsets[table + 1] - t_start).astype(np.int64)
            slot = np.minimum((u1[so] * size).astype(np.int64), size - 1)
            use_alias = u2[so] >= tables["so_accept"][t_start + slot]
            slot = np.where(use_alias, tables["so_alias"][t_start + slot],
                            slot)
            arc[so] = indptr[cur[so]] + slot
        accepted = lanes.flags()
        accepted[...] = True
        return arc, accepted


class HuGEKernel(WalkKernel):
    """HuGE's information-oriented hybrid transition (Eq. 3).

    ``α(u,v) = max(deg u/deg v, deg v/deg u) / (deg u − Cm(u,v))`` combines
    node-degree influence with common-neighbour similarity; the acceptance
    probability is ``P(u,v) = Z(α·w(u,v))`` with ``Z = tanh``.  Rejection
    backtracks to ``u`` (the walking-backtracking strategy).  Common
    neighbours are counted with galloping intersection over the sorted CSR
    adjacencies.
    """

    name = "huge"
    message_fields = 10  # the InCoM constant-size message
    neighbor_sensitive = True

    def __init__(self, graph: CSRGraph,
                 tables: Optional[Dict[str, np.ndarray]] = None) -> None:
        super().__init__(graph, tables)
        self._cm_cache: Dict[int, int] = {}
        self._n = graph.num_nodes
        self._rejections: Optional[np.ndarray] = None
        self.resolves_steps = native.load() is not None

    def acceptance_probability(self, u: int, v: int) -> float:
        """``P(u, v)`` of Eq. 3 (public for tests and for HuGE-D)."""
        deg_u = self.graph.degree(u)
        deg_v = self.graph.degree(v)
        if deg_u == 0 or deg_v == 0:
            # Directed dead end: accept the hop; the walk terminates there.
            return 1.0
        key = u * self._n + v if u < v else v * self._n + u
        cm = self._cm_cache.get(key)
        if cm is None:
            cm = galloping_intersect_size(self.graph.neighbors(u),
                                          self.graph.neighbors(v))
            self._cm_cache[key] = cm
        denom = deg_u - cm
        ratio = max(deg_u / deg_v, deg_v / deg_u)
        if denom <= 0:
            # Every neighbour of u is shared with v: maximal similarity.
            return 1.0
        alpha = ratio / denom
        if self.graph.is_weighted:
            alpha *= self.graph.edge_weight(u, v)
        return math.tanh(alpha)

    def step_with_uniforms(self, current: int, previous: int,
                           u1: float, u2: float, forced: bool) -> Optional[int]:
        candidate, _ = propose_with_uniform(self.graph, current, u1,
                                            self._cumsum_cache)
        if forced:
            return candidate
        if u2 < self.acceptance_probability(current, candidate):
            return candidate
        return None

    def trial(self, lanes, cur, prev, u1, u2):
        arc = self.propose(lanes, cur, u1)
        accepted = lanes.flags()
        np.less(u2, np.take(self.tables["arc_accept"], arc, mode="clip",
                            out=lanes.row(0, np.float64)), out=accepted)
        return arc, accepted

    def resolve_steps(self, cur: np.ndarray, args: np.ndarray,
                      horizon: int) -> Tuple[np.ndarray, np.ndarray]:
        """Every walker's whole step from its stream argument ``args``
        (advanced in place): ``(arc, trials)``, the trial at ``horizon``
        forced -- :meth:`trial`'s lanes run to each walker's first accept,
        in compiled code."""
        tables = self.tables
        return native.resolve_steps(self._indptr, tables.get("row_cumsum"),
                                    tables["arc_accept"], cur, args, horizon)

    def resolve_walks(self, sources: np.ndarray, args: np.ndarray,
                      horizon: int, out, **measure) -> None:
        """Each walker from ``sources`` to termination into the
        :class:`~repro.walks.vectorized.WalkBuffers` ``out``: the steps of
        :meth:`resolve_steps`, with the runner's termination and InCoM
        ``measure`` (:func:`repro.native.huge_walks`) between them."""
        tables = self.tables
        native.huge_walks(self._indptr, self._indices,
                          tables.get("row_cumsum"), tables["arc_accept"],
                          sources, args, horizon, out, **measure)

    def arc_acceptance_table(self) -> np.ndarray:
        """``P(u, v)`` of Eq. 3 for every stored arc, by flat arc index
        (the ``arc_accept`` table).

        Built as arrays from the vectorised
        :func:`common_neighbor_counts_per_arc` pass with the IEEE
        operations :meth:`acceptance_probability` performs per arc, and
        ``Z`` applied through the same scalar libm function -- so the table
        the batched trial indexes is bit-identical to what the scalar
        reference computes on demand.
        """
        return self.tables["arc_accept"]

    def _build_tables(self) -> Dict[str, np.ndarray]:
        return {**super()._build_tables(),
                "arc_accept": self._build_arc_table()}

    def _build_arc_table(self) -> np.ndarray:
        graph = self.graph
        deg_u = np.repeat(graph.degrees, graph.degrees)
        deg_v = graph.degrees[graph.indices]
        denom = deg_u - common_neighbor_counts_per_arc(graph)
        # Dead-end target or every neighbour shared: accepted outright.
        live = np.flatnonzero((deg_v > 0) & (denom > 0))
        deg_u, deg_v = deg_u[live], deg_v[live]
        alpha = np.maximum(deg_u / deg_v, deg_v / deg_u) / denom[live]
        if graph.is_weighted:
            alpha *= graph.weights[live]
        table = np.ones(graph.num_stored_edges, dtype=np.float64)
        # math.tanh, not np.tanh: NumPy's SIMD tanh is not guaranteed to
        # round like the libm call the scalar path makes.
        table[live] = [math.tanh(a) for a in alpha.tolist()]
        return table

    def expected_rejections(self) -> np.ndarray:
        """``1 / (a node's mean acceptance) − 1`` from the per-arc table.

        Every trial at ``u`` proposes an arc from the same distribution
        (uniform, or weight-proportional on weighted graphs), so trials
        there accept independently with that proposal-weighted mean and
        the rejections before a hop are geometric with this expectation.
        0 for dead ends, which no live walker stands on.
        """
        if self._rejections is None:
            graph = self.graph
            source = np.repeat(np.arange(graph.num_nodes), graph.degrees)
            # Per node: proposal mass, and the part of it that is accepted.
            mass, accepted = self._degrees_f, self.arc_acceptance_table()
            if graph.is_weighted:
                mass = np.bincount(source, weights=graph.weights,
                                   minlength=graph.num_nodes)
                accepted = graph.weights * accepted
            hit = np.bincount(source, weights=accepted,
                              minlength=graph.num_nodes)
            with np.errstate(divide="ignore", invalid="ignore"):
                rejections = mass / hit - 1.0
            rejections[~(rejections > 0)] = 0.0     # dead ends, rounding, NaN
            self._rejections = rejections
        return self._rejections


class HuGEPlusKernel(HuGEKernel):
    """HuGE+ [16]: next-hop selection additionally weighs the candidate's
    own information content.

    The HuGE+ paper augments Eq. 3 with a node-information term; we model it
    as the candidate's normalised degree information
    ``1 + log(1 + deg v) / log(1 + deg_max)``, which boosts hops toward
    informative (high-degree) regions while preserving HuGE's walk-length
    and walk-count rules.  (Approximation documented in DESIGN.md; HuGE+
    uses the same termination machinery, which dominates its behaviour.)
    """

    name = "huge+"

    def __init__(self, graph: CSRGraph,
                 tables: Optional[Dict[str, np.ndarray]] = None) -> None:
        super().__init__(graph, tables)
        self._log_max_deg = math.log1p(float(graph.degrees.max(initial=1)))

    def acceptance_probability(self, u: int, v: int) -> float:
        base = super().acceptance_probability(u, v)
        info = 1.0 + math.log1p(self.graph.degree(v)) / self._log_max_deg
        return math.tanh(math.atanh(min(base, 1.0 - 1e-12)) * info)

    def _build_arc_table(self) -> np.ndarray:
        base = np.minimum(super()._build_arc_table(), 1.0 - 1e-12)
        info = np.array([1.0 + math.log1p(d) / self._log_max_deg
                         for d in self.graph.degrees.tolist()])
        return np.array([
            math.tanh(math.atanh(b) * i)
            for b, i in zip(base.tolist(),
                            info[self.graph.indices].tolist())
        ], dtype=np.float64)


KERNELS = {
    kernel.name: kernel
    for kernel in (DeepWalkKernel, Node2VecKernel, Node2VecAliasKernel,
                   HuGEKernel, HuGEPlusKernel)
}


def kernel_class(name: str) -> type:
    """The kernel class registered under ``name`` (case-insensitive)."""
    cls = KERNELS.get(str(name).lower())
    if cls is None:
        raise KeyError(f"unknown kernel {name!r}; options: {sorted(KERNELS)}")
    return cls


def make_kernel(config, graph: CSRGraph,
                tables: Optional[Dict[str, np.ndarray]] = None) -> WalkKernel:
    """The one way a kernel is built: the class ``config.kernel`` names,
    with the config fields it reads, over ``tables`` when given (used as
    they are) or over tables built on first use."""
    cls = kernel_class(config.kernel)
    params = {field: getattr(config, field) for field in cls.config_fields}
    return cls(graph, tables=tables, **params)
