"""Partition oracles: MPGP scored by on-demand galloping.

The library scores PF2 (Eq. 14's second-order proximity) by gathering a
precomputed per-arc common-neighbour table; the paper's formulation
gallops ``|N(v) ∩ N(u)|`` for each placed neighbour ``u`` as node ``v``
streams in.  :func:`mpgp_stream_galloping` is that formulation, with the
same float64 operations in the same order, so every node lands on the
same partition; :class:`GallopingMPGPPartitioner` and
:class:`GallopingParallelMPGPPartitioner` run it in place of the table.
:func:`segment_affinity_loop` is the per-node reference of the parallel
variant's segment-merge affinity.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.partition import MPGPPartitioner, ParallelMPGPPartitioner
from repro.partition.galloping import galloping_intersect_size
from repro.partition.mpgp import merge_segments
from repro.partition.streaming_orders import get_order


def mpgp_stream_galloping(graph: CSRGraph, stream: np.ndarray,
                          num_parts: int, gamma: float) -> np.ndarray:
    """Place ``stream``'s nodes one by one (MPGP, Eqs. 14-15), galloping
    each placed neighbour's common-neighbour count on demand; returns the
    per-node parts (-1 for nodes off the stream)."""
    part_of = np.full(graph.num_nodes, -1, dtype=np.int64)
    sizes = np.zeros(num_parts, dtype=np.int64)
    weighted = graph.is_weighted
    for v in stream:
        v = int(v)
        nbrs = graph.neighbors(v)
        pf1 = np.zeros(num_parts, dtype=np.float64)
        pf2 = np.zeros(num_parts, dtype=np.float64)
        placed_mask = part_of[nbrs] >= 0
        placed_nbrs = nbrs[placed_mask]
        if placed_nbrs.size:
            parts = part_of[placed_nbrs]
            placed_weights = (graph.neighbor_weights(v)[placed_mask]
                              if weighted else None)
            if weighted:
                np.add.at(pf1, parts, placed_weights)
            else:
                np.add.at(pf1, parts, 1.0)
            for idx, u in enumerate(placed_nbrs):
                cm = galloping_intersect_size(nbrs, graph.neighbors(int(u)))
                if cm:
                    pf2[parts[idx]] += cm * (placed_weights[idx] if weighted
                                             else 1.0)
        total_assigned = int(sizes.sum())
        if total_assigned == 0:
            tau = np.ones(num_parts)
        else:
            tau = 1.0 - sizes / (gamma * (total_assigned / num_parts))
        scores = (pf1 + pf2) * tau
        eligible = tau > 0
        if not eligible.any():
            target = int(np.argmin(sizes))
        else:
            masked = np.where(eligible, scores, -np.inf)
            if float(masked.max()) <= 0.0:
                target = int(np.argmin(
                    np.where(eligible, sizes, np.iinfo(np.int64).max)))
            else:
                target = int(np.argmax(masked))
        part_of[v] = target
        sizes[target] += 1
    return part_of


class GallopingMPGPPartitioner(MPGPPartitioner):
    """Sequential MPGP on :func:`mpgp_stream_galloping`."""

    def _assign(self, graph: CSRGraph, num_parts: int) -> np.ndarray:
        stream = get_order(self.order, graph, self.seed)
        return mpgp_stream_galloping(graph, stream, num_parts, self.gamma)


class GallopingParallelMPGPPartitioner(ParallelMPGPPartitioner):
    """Parallel MPGP with every segment on :func:`mpgp_stream_galloping`,
    in-process, merged by the library's :func:`merge_segments` (whose
    affinity :func:`segment_affinity_loop` checks separately)."""

    def _assign(self, graph: CSRGraph, num_parts: int) -> np.ndarray:
        stream = get_order(self.order, graph, self.seed)
        segments = [s for s in np.array_split(stream, self.num_segments)
                    if s.size]
        seg_parts = [mpgp_stream_galloping(graph, s, num_parts,
                                           self.gamma)[s]
                     for s in segments]
        return merge_segments(graph, segments, seg_parts, num_parts,
                              self.gamma)


def segment_affinity_loop(graph: CSRGraph, seg_nodes: np.ndarray,
                          seg_parts: np.ndarray, final: np.ndarray,
                          num_parts: int) -> np.ndarray:
    """Per-node reference of ``repro.partition.mpgp._segment_affinity``:
    edges from each segment part to every machine's merged nodes."""
    affinity = np.zeros((num_parts, num_parts), dtype=np.float64)
    for v, p in zip(seg_nodes, seg_parts):
        nbr_final = final[graph.neighbors(int(v))]
        nbr_final = nbr_final[nbr_final >= 0]
        if nbr_final.size:
            np.add.at(affinity[p], nbr_final, 1.0)
    return affinity
