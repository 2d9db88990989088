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

1. first-order scores use a membership bitmap (O(deg) for all partitions at
   once) and common-neighbour counts use **galloping** intersection;
2. PF2 only visits ``u ∈ N(v) ∩ P_i`` -- non-neighbours cannot be reached
   by a walker in one hop, so they are skipped;
3. streaming order is pluggable, defaulting to **DFS+degree** (recommended
   for sequential MPGP);
4. a parallel variant (:class:`ParallelMPGPPartitioner`) splits the stream
   into segments partitioned independently and merged, defaulting to
   **BFS+degree** as the paper recommends.

Backends
--------
``PartitionConfig.backend`` (also a constructor kwarg) selects how PF2 is
computed, mirroring the walk engine's backend knob:

* ``"vectorized"`` -- the per-arc common-neighbour table is precomputed by
  :func:`repro.walks.kernels.common_neighbor_counts_per_arc`, the exact
  pass ``HuGEKernel.arc_acceptance_table`` is built from (the ROADMAP's
  suggested sharing: MPGP's second-order proximity *is* the quantity
  HuGE's transition probability rewards).  Each streamed node then scores
  all partitions with pure array ops -- no per-neighbour Python loop.
* ``"loop"`` -- the on-demand galloping reference below.

Both backends place every node identically (the score arithmetic is the
same float64 operations in the same order), so assignments are
byte-identical; only the wall time differs.

Execution
---------
``PartitionConfig.execution`` (also a constructor kwarg) selects where the
*parallel* variant's segments are partitioned: ``"serial"`` runs them one
after another in the calling process, ``"process"`` fans them out across
``workers`` OS processes over a shared-memory CSR
(:func:`repro.runtime.executor.run_partition_segments`).  Segments share no
state, so the fan-out is a pure reordering and assignments stay
byte-identical.  The sequential partitioner's stream is one
order-dependent chain -- each placement reads every earlier one -- so it
always executes serially regardless of the knob (accepted for config
uniformity; the vectorized PF2 table is its fast path).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.graph.csr import CSRGraph
from repro.partition.base import (
    PartitionConfig,
    Partitioner,
    resolve_backend,
)
from repro.partition.galloping import galloping_intersect_size
from repro.partition.streaming_orders import get_order
from repro.runtime.executor import resolve_backing, resolve_execution
from repro.utils.rng import SeedLike
from repro.utils.validation import check_positive


def _arc_common_neighbors(graph: CSRGraph) -> np.ndarray:
    """Per-arc ``|N(u) ∩ N(v)|`` table (vectorized backend precompute)."""
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
    part_of: Optional[np.ndarray] = None,
    sizes: Optional[np.ndarray] = None,
    arc_cm: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Core streaming loop shared by sequential and parallel MPGP.

    ``part_of``/``sizes`` allow a caller to continue from a partial
    assignment (used when merging parallel segments).  ``arc_cm`` is the
    precomputed per-arc common-neighbour table (vectorized backend); when
    ``None`` counts are galloped on demand (loop backend).  The float64
    accumulation order is identical either way, so both backends place
    every node on the same partition.
    """
    n = graph.num_nodes
    if part_of is None:
        part_of = np.full(n, -1, dtype=np.int64)
    if sizes is None:
        sizes = np.zeros(num_parts, dtype=np.int64)
    member_of_part = part_of  # alias for readability
    weighted = graph.is_weighted
    indptr = graph.indptr

    for v in stream:
        v = int(v)
        nbrs = graph.neighbors(v)
        nbr_weights = graph.neighbor_weights(v) if weighted else None

        pf1 = np.zeros(num_parts, dtype=np.float64)
        pf2 = np.zeros(num_parts, dtype=np.float64)
        placed_mask = member_of_part[nbrs] >= 0 if nbrs.size else \
            np.empty(0, dtype=bool)
        placed_nbrs = nbrs[placed_mask]
        if placed_nbrs.size:
            parts = member_of_part[placed_nbrs]
            if weighted:
                np.add.at(pf1, parts, nbr_weights[placed_mask])
            else:
                np.add.at(pf1, parts, 1.0)
            # Second-order proximity, restricted to partitioned neighbours
            # (optimisation 2).
            if arc_cm is not None:
                # Vectorized: gather the placed arcs' precomputed counts
                # and accumulate per partition in one pass.  np.add.at
                # adds in index order, matching the loop below (zero
                # counts add +0.0 exactly).
                cm_placed = arc_cm[indptr[v]:indptr[v + 1]][placed_mask]
                contrib = (cm_placed * nbr_weights[placed_mask] if weighted
                           else cm_placed.astype(np.float64))
                np.add.at(pf2, parts, contrib)
            else:
                # Loop reference: gallop each placed neighbour on demand.
                for idx, u in enumerate(placed_nbrs):
                    cm = galloping_intersect_size(nbrs, graph.neighbors(int(u)))
                    if cm:
                        contrib = cm * (nbr_weights[placed_mask][idx] if weighted else 1.0)
                        pf2[parts[idx]] += contrib

        total_assigned = int(sizes.sum())
        if total_assigned == 0:
            tau = np.ones(num_parts)
        else:
            avg = total_assigned / num_parts
            tau = 1.0 - sizes / (gamma * avg)
        scores = (pf1 + pf2) * tau
        eligible = tau > 0
        if not eligible.any():
            target = int(np.argmin(sizes))
        else:
            masked = np.where(eligible, scores, -np.inf)
            best = float(masked.max())
            if best <= 0.0:
                # No structural signal: place on the least-loaded eligible
                # partition to preserve balance.
                candidate_sizes = np.where(eligible, sizes, np.iinfo(np.int64).max)
                target = int(np.argmin(candidate_sizes))
            else:
                target = int(np.argmax(masked))
        part_of[v] = target
        sizes[target] += 1
    return part_of


class MPGPPartitioner(Partitioner):
    """Sequential MPGP (paper default: DFS+degree stream, γ = 2).

    ``execution``/``workers``/``backing``/``spill_dir`` are accepted for
    config uniformity with the other phases but the sequential stream
    always runs serially: every
    placement reads all earlier placements, so there is no independent
    work to fan out (use :class:`ParallelMPGPPartitioner` for the
    segment-parallel variant).
    """

    name = "mpgp"

    def __init__(self, gamma: float = 2.0, order: str = "dfs+degree",
                 seed: SeedLike = 0, backend: str = "auto",
                 execution: str = "serial", workers: int = 0,
                 backing: str = "shm",
                 spill_dir: Optional[str] = None) -> None:
        check_positive("gamma", gamma)
        resolve_backend(backend)
        resolve_execution(execution)
        resolve_backing(backing)
        self.gamma = gamma
        self.order = order
        self.seed = seed
        self.backend = backend
        self.execution = execution
        self.workers = workers
        self.backing = backing
        self.spill_dir = spill_dir

    @classmethod
    def from_config(cls, config: PartitionConfig) -> "MPGPPartitioner":
        return cls(gamma=config.gamma, order=config.order, seed=config.seed,
                   backend=config.backend, execution=config.execution,
                   workers=config.workers, backing=config.backing,
                   spill_dir=config.spill_dir)

    def resolved_backend(self) -> str:
        return resolve_backend(self.backend)

    def _assign(self, graph: CSRGraph, num_parts: int) -> np.ndarray:
        stream = get_order(self.order, graph, self.seed)
        arc_cm = (_arc_common_neighbors(graph)
                  if self.resolved_backend() == "vectorized" else None)
        return _mpgp_stream(graph, stream, num_parts, self.gamma,
                            arc_cm=arc_cm)


def _segment_affinity(graph: CSRGraph, seg_nodes: np.ndarray,
                      seg_parts: np.ndarray, final: np.ndarray,
                      num_parts: int) -> np.ndarray:
    """Edge affinity between every segment part and every machine.

    ``affinity[p, m]`` counts edges from the segment's part-``p`` nodes to
    already-merged nodes on machine ``m``.  Computed as one flat CSR
    gather plus a bincount over ``(part, machine)`` pairs; every increment
    is the integer 1.0, so the float64 sums equal the per-neighbour loop
    of :func:`_segment_affinity_loop` exactly, in any accumulation order.
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


def _segment_affinity_loop(graph: CSRGraph, seg_nodes: np.ndarray,
                           seg_parts: np.ndarray, final: np.ndarray,
                           num_parts: int) -> np.ndarray:
    """Per-node reference of :func:`_segment_affinity` (the merge parity
    suite pins the two equal; at 10^5+ nodes this loop is what used to
    serialize the parallel path)."""
    affinity = np.zeros((num_parts, num_parts), dtype=np.float64)
    for v, p in zip(seg_nodes, seg_parts):
        nbr_final = final[graph.neighbors(int(v))]
        nbr_final = nbr_final[nbr_final >= 0]
        if nbr_final.size:
            np.add.at(affinity[p], nbr_final, 1.0)
    return affinity


def merge_segments(graph: CSRGraph, segments: List[np.ndarray],
                   seg_parts_list: List[np.ndarray], num_parts: int,
                   gamma: float,
                   affinity_fn=_segment_affinity) -> np.ndarray:
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
        affinity = affinity_fn(graph, seg_nodes, seg_parts, final,
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
    partition set -- serially or on worker processes
    (``execution="process"``), byte-identical -- and segment results are
    merged by :func:`merge_segments`.
    """

    name = "mpgp-parallel"

    def __init__(self, gamma: float = 2.0, order: str = "bfs+degree",
                 num_segments: int = 4, seed: SeedLike = 0,
                 backend: str = "auto", execution: str = "serial",
                 workers: int = 0, backing: str = "shm",
                 spill_dir: Optional[str] = None) -> None:
        # Within one process the independent-segment structure (less PF2
        # work per segment) is what delivers the speed-up;
        # ``execution="process"`` is what buys multi-core wall-clock.
        check_positive("gamma", gamma)
        check_positive("num_segments", num_segments)
        resolve_backend(backend)
        resolve_execution(execution)
        resolve_backing(backing)
        self.gamma = gamma
        self.order = order
        self.num_segments = num_segments
        self.seed = seed
        self.backend = backend
        self.execution = execution
        self.workers = workers
        self.backing = backing
        self.spill_dir = spill_dir

    @classmethod
    def from_config(cls, config: PartitionConfig) -> "ParallelMPGPPartitioner":
        return cls(gamma=config.gamma, order=config.order,
                   num_segments=config.num_segments, seed=config.seed,
                   backend=config.backend, execution=config.execution,
                   workers=config.workers, backing=config.backing,
                   spill_dir=config.spill_dir)

    def resolved_backend(self) -> str:
        return resolve_backend(self.backend)

    def _assign(self, graph: CSRGraph, num_parts: int) -> np.ndarray:
        stream = get_order(self.order, graph, self.seed)
        segments = np.array_split(stream, self.num_segments)
        segments = [s for s in segments if s.size]
        # One table shared by every segment (and, conceptually, with the
        # HuGE kernel's acceptance precompute on the same graph).
        arc_cm = (_arc_common_neighbors(graph)
                  if self.resolved_backend() == "vectorized" else None)

        if self.execution in ("process", "pipeline") and len(segments) > 1:
            from repro.runtime.executor import run_partition_segments

            seg_parts_list = run_partition_segments(
                graph, segments, num_parts, self.gamma, arc_cm,
                self.workers, backing=self.backing,
                spill_dir=self.spill_dir)
        else:
            seg_parts_list = [
                _mpgp_stream(graph, segment, num_parts, self.gamma,
                             arc_cm=arc_cm)[segment]
                for segment in segments]

        return merge_segments(graph, segments, seg_parts_list, num_parts,
                              self.gamma)
