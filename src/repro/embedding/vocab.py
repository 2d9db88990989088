"""Frequency-ordered vocabulary and hotness blocks (paper §4.2, Improvement-I/III).

DSGL builds its global matrices ``φ_in``/``φ_out`` in **descending corpus
frequency** order so the hottest rows share cache lines (Improvement-I);
the same ordering partitions rows into **hotness blocks** -- maximal runs
of equal occurrence count -- which drive the synchronisation scheme
(Improvement-III: one sampled row per block per sync period).

:class:`Vocabulary` owns the node↔row mapping and the block boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.walks.corpus import Corpus


@dataclass
class Vocabulary:
    """Node↔row mapping ordered by corpus frequency."""

    #: node id per matrix row (descending frequency).
    row_to_node: np.ndarray
    #: matrix row per node id (inverse permutation).
    node_to_row: np.ndarray
    #: occurrence count per row (non-increasing).
    row_counts: np.ndarray

    @classmethod
    def from_corpus(cls, corpus: Corpus) -> "Vocabulary":
        """Vocabulary over a corpus -- reads only the occurrence counters.

        The flat corpus keeps ``ocn(v)`` incrementally, so the vocab build
        never touches the token block (it is an offset-range view the
        trainer may already have moved into shared memory).
        """
        return cls.from_occurrences(corpus.occurrences)

    @classmethod
    def from_occurrences(cls, occurrences: np.ndarray) -> "Vocabulary":
        """Vocabulary straight from per-node occurrence counts (the form
        process workers hold when only the flat corpus arrays travel)."""
        occ = np.asarray(occurrences, dtype=np.int64)
        order = np.argsort(-occ, kind="stable").astype(np.int64)
        inverse = np.empty_like(order)
        inverse[order] = np.arange(order.size, dtype=np.int64)
        return cls(
            row_to_node=order,
            node_to_row=inverse,
            row_counts=occ[order],
        )

    @property
    def size(self) -> int:
        return int(self.row_to_node.size)

    def rows_of(self, nodes: np.ndarray) -> np.ndarray:
        """Vectorised node→row lookup."""
        return self.node_to_row[nodes]

    def hotness_blocks(self) -> List[Tuple[int, int]]:
        """``[start, end)`` row ranges of equal occurrence count.

        Rows are frequency-sorted, so blocks are contiguous; there are at
        most ``ocn_max`` non-empty blocks (paper's synchronisation-cost
        bound ``O(ocn_max · d · m)``).  Zero-occurrence rows form a final
        block that the sync scheme may skip -- those vectors are never
        touched by training.
        """
        if self.size == 0:
            return []
        counts = self.row_counts
        boundaries = np.flatnonzero(np.diff(counts)) + 1
        starts = np.concatenate([[0], boundaries])
        ends = np.concatenate([boundaries, [counts.size]])
        return [(int(s), int(e)) for s, e in zip(starts, ends)]

    def reorder_to_node_space(self, matrix: np.ndarray) -> np.ndarray:
        """Return ``matrix`` rows permuted from row-order to node-id order."""
        out = np.empty_like(matrix)
        out[self.row_to_node] = matrix
        return out
