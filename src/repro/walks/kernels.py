"""Per-step transition kernels: DeepWalk, node2vec, HuGE, HuGE+.

Each kernel proposes/accepts the next node for a walker positioned at
``u``.  All kernels share the *rejection* idiom of the paper: a uniformly
chosen candidate is accepted with a kernel-specific probability, and a
rejection leaves the walker at ``u`` to retry (KnightKing's rejection
sampling for node2vec; HuGE's walking-backtracking strategy [30]).

The function contract returns the accepted node or ``None`` on rejection;
engines count every call as one unit of per-machine compute, which is what
makes the acceptance-rate differences between kernels visible in the
simulated cost model.

Two stepping interfaces coexist:

* ``step(current, previous, rng)`` -- draws from a stateful
  :class:`numpy.random.Generator`; no engine calls it, the kernel
  distribution tests and ``bench_ablation_alias_vs_rejection.py``
  measure it.
* ``step_with_uniforms(current, previous, u1, u2, forced)`` -- the
  scheduling-independent interface every engine runs on: the engine
  supplies exactly two uniforms per trial from the walker's private
  counter stream (``u1`` proposes, ``u2`` accepts), so the loop and
  vectorized backends consume identical randomness and produce
  byte-identical walks.  ``forced`` marks the unconditional hop applied
  after ``max_trials_per_step`` rejections: the proposal is drawn the same
  way and accepted outright.

:func:`common_neighbor_counts_per_arc` and
:meth:`HuGEKernel.arc_acceptance_table` precompute Eq. 3 for every stored
arc in one pass; the vectorized engine looks acceptance probabilities up
by flat arc index while the loop engine computes them on demand with the
same IEEE operations and the same libm ``tanh``, keeping the two backends
bit-equal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.graph.csr import CSRGraph
from repro.partition.galloping import galloping_intersect_size
from repro.utils.validation import check_positive


def _weighted_choice(
    graph: CSRGraph,
    node: int,
    rng: np.random.Generator,
    cumsum_cache: Optional[Dict[int, np.ndarray]] = None,
) -> int:
    """Uniform (or weight-proportional) neighbour draw."""
    nbrs = graph.neighbors(node)
    if nbrs.size == 0:
        raise ValueError(f"node {node} has no neighbours to walk to")
    if not graph.is_weighted:
        return int(nbrs[rng.integers(0, nbrs.size)])
    if cumsum_cache is not None and node in cumsum_cache:
        cumsum = cumsum_cache[node]
    else:
        cumsum = np.cumsum(graph.neighbor_weights(node))
        if cumsum_cache is not None:
            cumsum_cache[node] = cumsum
    x = rng.random() * cumsum[-1]
    return int(nbrs[np.searchsorted(cumsum, x, side="right")])


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
    CDF over the per-node weight cumsum.  Both clamp to ``deg - 1`` so a
    rounding artefact at ``u1 → 1`` cannot index out of range -- the batch
    implementation applies the identical clamp.
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
        k = int(np.searchsorted(cumsum, u1 * cumsum[-1], side="right"))
    if k >= deg:
        k = deg - 1
    return int(graph.indices[graph.indptr[node] + k]), k


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


@dataclass
class DeepWalkKernel:
    """First-order uniform walk (DeepWalk [42]); never rejects."""

    graph: CSRGraph

    def __post_init__(self) -> None:
        self._cumsum_cache: Dict[int, np.ndarray] = {}

    name = "deepwalk"
    message_fields = 3  # [walk_id, steps, node_id]

    def step(self, current: int, previous: int, rng: np.random.Generator) -> Optional[int]:
        return _weighted_choice(self.graph, current, rng, self._cumsum_cache)

    def step_with_uniforms(self, current: int, previous: int,
                           u1: float, u2: float, forced: bool) -> Optional[int]:
        candidate, _ = propose_with_uniform(self.graph, current, u1,
                                            self._cumsum_cache)
        return candidate  # first-order walks never reject


@dataclass
class Node2VecKernel:
    """Second-order node2vec walk via rejection sampling (paper §2.1/§2.2).

    The envelope is ``Q(u) = max(1/p, 1, 1/q)``; a uniform candidate ``v``
    is accepted iff ``π_uv >= y`` for ``y ~ U[0, Q)`` with ``π_uv`` equal to
    ``1/p`` (return to the previous node), ``1`` (candidate adjacent to the
    previous node) or ``1/q`` (outward move) -- KnightKing's O(1)-per-trial
    scheme that avoids scanning the out-edges.
    """

    graph: CSRGraph
    p: float = 1.0
    q: float = 1.0

    name = "node2vec"
    message_fields = 4  # [walk_id, steps, node_id, prev_node_id]

    def __post_init__(self) -> None:
        check_positive("p", self.p)
        check_positive("q", self.q)
        self._envelope = max(1.0 / self.p, 1.0, 1.0 / self.q)
        self._cumsum_cache: Dict[int, np.ndarray] = {}

    def _pi(self, previous: int, candidate: int) -> float:
        if previous < 0:
            return 1.0  # first step is first-order
        if candidate == previous:
            return 1.0 / self.p
        if self.graph.has_edge(previous, candidate):
            return 1.0
        return 1.0 / self.q

    def step(self, current: int, previous: int, rng: np.random.Generator) -> Optional[int]:
        candidate = _weighted_choice(self.graph, current, rng, self._cumsum_cache)
        y = rng.random() * self._envelope
        if self._pi(previous, candidate) >= y:
            return candidate
        return None

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


@dataclass
class HuGEKernel:
    """HuGE's information-oriented hybrid transition (Eq. 3).

    ``α(u,v) = max(deg u/deg v, deg v/deg u) / (deg u − Cm(u,v))`` combines
    node-degree influence with common-neighbour similarity; the acceptance
    probability is ``P(u,v) = Z(α·w(u,v))`` with ``Z = tanh``.  Rejection
    backtracks to ``u`` (the walking-backtracking strategy).  Common
    neighbours are counted with galloping intersection over the sorted CSR
    adjacencies.
    """

    graph: CSRGraph

    name = "huge"
    message_fields = 10  # the InCoM constant-size message

    def __post_init__(self) -> None:
        self._cumsum_cache: Dict[int, np.ndarray] = {}
        self._cm_cache: Dict[int, int] = {}
        self._n = self.graph.num_nodes
        self._arc_acceptance: Optional[np.ndarray] = None

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

    def step(self, current: int, previous: int, rng: np.random.Generator) -> Optional[int]:
        candidate = _weighted_choice(self.graph, current, rng, self._cumsum_cache)
        if rng.random() < self.acceptance_probability(current, candidate):
            return candidate
        return None

    def step_with_uniforms(self, current: int, previous: int,
                           u1: float, u2: float, forced: bool) -> Optional[int]:
        candidate, _ = propose_with_uniform(self.graph, current, u1,
                                            self._cumsum_cache)
        if forced:
            return candidate
        if u2 < self.acceptance_probability(current, candidate):
            return candidate
        return None

    def arc_acceptance_table(self) -> np.ndarray:
        """``P(u, v)`` of Eq. 3 for every stored arc, by flat arc index.

        Built as arrays from the vectorised
        :func:`common_neighbor_counts_per_arc` pass with the IEEE
        operations :meth:`acceptance_probability` performs per arc, and
        ``Z`` applied through the same scalar libm function -- so the table
        the batch engine indexes is bit-identical to what the loop engine
        computes on demand.  Cached on the kernel after the first call.
        """
        if self._arc_acceptance is None:
            self._arc_acceptance = self._build_arc_table()
        return self._arc_acceptance

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


@dataclass
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

    def __post_init__(self) -> None:
        super().__post_init__()
        self._log_max_deg = math.log1p(float(self.graph.degrees.max(initial=1)))

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
    "deepwalk": DeepWalkKernel,
    "node2vec": Node2VecKernel,
    "huge": HuGEKernel,
    "huge+": HuGEPlusKernel,
}


def make_kernel(name: str, graph: CSRGraph, **kwargs):
    """Instantiate a kernel by name with kernel-specific kwargs."""
    key = name.lower()
    if key not in KERNELS:
        raise KeyError(f"unknown kernel {name!r}; options: {sorted(KERNELS)}")
    return KERNELS[key](graph, **kwargs)
