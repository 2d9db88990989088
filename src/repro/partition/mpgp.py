"""MPGP: Multi-Proximity-aware streaming Graph Partitioning (paper §3.2).

MPGP places each streamed node ``v`` on the partition maximising

    ``(PF1(v, P_i) + PF2(v, P_i)) · τ(P_i)``            (Eq. 14)

where

* ``PF1(v, P_i) = |N(v) ∩ P_i|`` is the first-order proximity (neighbour
  count already in the partition; weighted graphs sum edge weights),
* ``PF2(v, P_i) = Σ_{u ∈ N(v) ∩ P_i} |N(v) ∩ N(u)|`` is the second-order
  proximity (common-neighbour mass -- the same quantity HuGE's transition
  probability rewards, which is why MPGP keeps information-oriented walkers
  local), and
* ``τ(P_i) = 1 − |P_i| / (γ · avg_size)`` is the *dynamic* load-balancing
  term (Eq. 15): ``avg_size`` is recomputed after every assignment, so good
  balance is enforced throughout the stream rather than only at the end
  (the paper's contrast with LDG/FENNEL's static capacities).

Optimisations from the paper, all implemented here:

1. each streamed node scores all partitions in one O(deg) pass over its
   CSR row, reading each neighbour's partition from the placement list;
   common-neighbour counts come from one per-arc table,
   :func:`repro.walks.kernels.common_neighbor_counts_per_arc` -- the exact
   pass ``HuGEKernel.arc_acceptance_table`` is built from (MPGP's
   second-order proximity *is* the quantity HuGE's transition probability
   rewards) -- so no intersection is computed during the stream (both
   run in C, ``partition/mpgp.c``, when :mod:`repro.native` loads);
2. PF2 only visits ``u ∈ N(v) ∩ P_i`` -- non-neighbours cannot be reached
   by a walker in one hop, so they are skipped;
3. streaming order is pluggable, defaulting to **DFS+degree** (recommended
   for sequential MPGP);
4. a parallel variant (:class:`ParallelMPGPPartitioner`) splits the stream
   into segments partitioned independently and merged, defaulting to
   **BFS+degree** as the paper recommends.

The paper's on-demand **galloping** intersection per placed neighbour is
the parity reference ``tests/oracles/partition.py`` keeps: it places
every node identically (the score arithmetic is the same float64
operations in the same order), so assignments are byte-identical.

Execution
---------
The *parallel* variant takes the run's
:class:`~repro.runtime.executor.ExecutionContext` (``PartitionConfig.
context``, or the constructor's ``context``): serial execution runs the
segments one after another in the calling process, a worker-pool context
fans them out across ``workers`` OS processes over a shared CSR
(:func:`repro.runtime.executor.run_partition_segments`).  Segments share no
state, so the fan-out is a pure reordering and assignments stay
byte-identical.  The sequential partitioner's stream is one
order-dependent chain -- each placement reads every earlier one -- so it
takes no context (the PF2 table is its fast path).
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import List, Optional

import numpy as np

from repro import native
from repro.graph.csr import CSRGraph
from repro.partition.base import PartitionConfig, Partitioner
from repro.partition.streaming_orders import check_order, get_order
from repro.runtime.executor import ExecutionContext
from repro.utils.rng import SeedLike
from repro.utils.validation import check_integral, check_positive


def _arc_common_neighbors(graph: CSRGraph) -> np.ndarray:
    """Per-arc ``|N(u) ∩ N(v)|`` table (PF2's precompute)."""
    # Imported lazily: walks.kernels itself imports partition.galloping,
    # and a module-level import here would close that cycle during
    # package initialisation.
    from repro.walks.kernels import common_neighbor_counts_per_arc

    return common_neighbor_counts_per_arc(graph)


def _mpgp_stream(
    graph: CSRGraph,
    stream: np.ndarray,
    num_parts: int,
    gamma: float,
    arc_cm: np.ndarray,
) -> np.ndarray:
    """Core streaming loop shared by sequential and parallel MPGP.

    Places ``stream``'s nodes one by one against an empty partition set
    and returns the per-node parts (-1 for nodes off the stream).
    ``arc_cm`` is the per-arc common-neighbour table
    (:func:`_arc_common_neighbors`).  Each node scores its CSR row in
    scalar float64 -- the galloping reference's operations in its arc and
    partition order, so every node lands on the same partition -- in C
    (:func:`repro.native.mpgp_stream`) when the compiled library loads,
    else over Python scalars below.
    """
    if native.load() is not None:
        return native.mpgp_stream(graph.indptr, graph.indices, graph.weights,
                                  arc_cm, stream, num_parts, gamma)
    starts = graph.indptr.tolist()
    indices, weights = graph.indices, graph.weights
    gamma = float(gamma)
    part_of = [-1] * graph.num_nodes
    sizes = [0] * num_parts
    for assigned, v in enumerate(stream.tolist()):
        lo, hi = starts[v], starts[v + 1]
        pf1 = [0.0] * num_parts
        pf2 = [0.0] * num_parts
        row_weights = (repeat(1.0) if weights is None
                       else weights[lo:hi].tolist())
        for u, cm, w in zip(indices[lo:hi].tolist(), arc_cm[lo:hi].tolist(),
                            row_weights):
            p = part_of[u]
            if p >= 0:
                pf1[p] += w
                pf2[p] += cm * w
        # τ = 1 before the first placement (0 / inf); the best eligible
        # (τ > 0) score wins, the least-loaded eligible part without
        # structural signal, the least-loaded part when none is eligible.
        cap = gamma * (assigned / num_parts) if assigned else math.inf
        target = least = -1
        best = -math.inf
        for p in range(num_parts):
            tau = 1.0 - sizes[p] / cap
            if tau > 0:
                score = (pf1[p] + pf2[p]) * tau
                if score > best:
                    best, target = score, p
                if least < 0 or sizes[p] < sizes[least]:
                    least = p
        if target < 0:
            target = sizes.index(min(sizes))
        elif best <= 0.0:
            target = least
        part_of[v] = target
        sizes[target] += 1
    return np.array(part_of, dtype=np.int64)


class MPGPPartitioner(Partitioner):
    """Sequential MPGP (paper default: DFS+degree stream, γ = 2).

    Takes no execution context: every placement reads all earlier
    placements, so the stream is one chain with no independent work to
    fan out (use :class:`ParallelMPGPPartitioner` for the
    segment-parallel variant).
    """

    name = "mpgp"

    def __init__(self, gamma: float = 2.0, order: str = "dfs+degree",
                 seed: SeedLike = 0) -> None:
        check_positive("gamma", gamma)
        check_order(order)
        self.gamma = gamma
        self.order = order
        self.seed = seed

    @classmethod
    def from_config(cls, config: PartitionConfig) -> "MPGPPartitioner":
        return cls(gamma=config.gamma, order=config.order, seed=config.seed)

    def _assign(self, graph: CSRGraph, num_parts: int) -> np.ndarray:
        stream = get_order(self.order, graph, self.seed)
        return _mpgp_stream(graph, stream, num_parts, self.gamma,
                            _arc_common_neighbors(graph))


def _segment_affinity(graph: CSRGraph, seg_nodes: np.ndarray,
                      seg_parts: np.ndarray, final: np.ndarray,
                      num_parts: int) -> np.ndarray:
    """Edge affinity between every segment part and every machine.

    ``affinity[p, m]`` counts edges from the segment's part-``p`` nodes to
    already-merged nodes on machine ``m``.  Computed as one flat CSR
    gather plus a bincount over ``(part, machine)`` pairs; every increment
    is the integer 1.0, so the float64 sums equal a per-neighbour loop
    (the parity reference in ``tests/oracles/partition.py``) exactly, in
    any accumulation order.
    """
    affinity = np.zeros((num_parts, num_parts), dtype=np.float64)
    degrees = graph.degrees[seg_nodes].astype(np.int64)
    total = int(degrees.sum())
    if total == 0:
        return affinity
    excl = np.zeros(seg_nodes.size, dtype=np.int64)
    np.cumsum(degrees[:-1], out=excl[1:])
    flat = (np.arange(total, dtype=np.int64)
            - np.repeat(excl, degrees)
            + np.repeat(graph.indptr[seg_nodes], degrees))
    nbr_final = final[graph.indices[flat]]
    placed = nbr_final >= 0
    if placed.any():
        pair = (np.repeat(seg_parts, degrees)[placed] * num_parts
                + nbr_final[placed])
        affinity += np.bincount(
            pair, minlength=num_parts * num_parts
        ).reshape(num_parts, num_parts)
    return affinity


def merge_segments(graph: CSRGraph, segments: List[np.ndarray],
                   seg_parts_list: List[np.ndarray], num_parts: int,
                   gamma: float) -> np.ndarray:
    """Merge independently-partitioned segments onto global machines.

    Per segment, each part goes to the machine it shares the most edges
    with among machines not yet taken by this segment, weighted by the
    same dynamic balance term MPGP uses; the first segment (no prior
    content) falls back to largest-part -> lightest-machine.
    ``seg_parts_list`` holds each segment's per-node part labels aligned
    with the segment arrays.
    """
    final = np.full(graph.num_nodes, -1, dtype=np.int64)
    global_sizes = np.zeros(num_parts, dtype=np.int64)
    for seg_nodes, seg_parts in zip(segments, seg_parts_list):
        seg_sizes = np.bincount(seg_parts, minlength=num_parts)
        affinity = _segment_affinity(graph, seg_nodes, seg_parts, final,
                                     num_parts)
        mapping = np.full(num_parts, -1, dtype=np.int64)
        taken = np.zeros(num_parts, dtype=bool)
        total_assigned = int(global_sizes.sum())
        avg = max(1.0, (total_assigned + seg_nodes.size) / num_parts)
        for p in np.argsort(-seg_sizes, kind="stable"):
            tau = np.maximum(1e-9, 1.0 - global_sizes / (gamma * avg))
            scores = np.where(taken, -np.inf, (affinity[p] + 1e-9) * tau)
            target = int(np.argmax(scores))
            mapping[p] = target
            taken[target] = True
        mapped = mapping[seg_parts]
        final[seg_nodes] = mapped
        global_sizes += np.bincount(mapped, minlength=num_parts)
    # Nodes absent from the stream (isolated under some orders) --
    # defensive fallback, streaming orders cover all nodes.
    missing = np.flatnonzero(final < 0)
    for v in missing:  # pragma: no cover - orders are exhaustive
        target = int(np.argmin(global_sizes))
        final[v] = target
        global_sizes[target] += 1
    return final


class ParallelMPGPPartitioner(Partitioner):
    """Parallel MPGP (MPGP-P): segment the stream, partition independently,
    merge (paper default: BFS+degree stream).

    Each segment is partitioned by the core MPGP loop against its own empty
    partition set -- serially or on worker processes, as ``context``
    says (:meth:`ExecutionContext.fans_out`), byte-identical -- and
    segment results are merged by :func:`merge_segments`.
    """

    name = "mpgp-parallel"

    def __init__(self, gamma: float = 2.0, order: str = "bfs+degree",
                 num_segments: int = 4, seed: SeedLike = 0,
                 context: Optional[ExecutionContext] = None) -> None:
        # Within one process the independent-segment structure (less PF2
        # work per segment) is what delivers the speed-up; a worker-pool
        # context is what buys multi-core wall-clock.
        check_positive("gamma", gamma)
        check_order(order)
        check_integral("num_segments", num_segments)
        check_positive("num_segments", num_segments)
        self.gamma = gamma
        self.order = order
        self.num_segments = num_segments
        self.seed = seed
        self.context = context or ExecutionContext()

    @classmethod
    def from_config(cls, config: PartitionConfig) -> "ParallelMPGPPartitioner":
        return cls(gamma=config.gamma, order=config.order,
                   num_segments=config.num_segments, seed=config.seed,
                   context=config.context)

    def _assign(self, graph: CSRGraph, num_parts: int) -> np.ndarray:
        stream = get_order(self.order, graph, self.seed)
        segments = np.array_split(stream, self.num_segments)
        segments = [s for s in segments if s.size]
        # One table shared by every segment (and, conceptually, with the
        # HuGE kernel's acceptance precompute on the same graph).
        arc_cm = _arc_common_neighbors(graph)

        if self.context.fans_out(len(segments)):
            from repro.runtime.executor import run_partition_segments

            seg_parts_list = run_partition_segments(
                graph, segments, num_parts, self.gamma, arc_cm,
                self.context)
        else:
            seg_parts_list = [
                _mpgp_stream(graph, segment, num_parts, self.gamma,
                             arc_cm)[segment]
                for segment in segments]

        return merge_segments(graph, segments, seg_parts_list, num_parts,
                              self.gamma)
