"""Partitioner interface and the partition result type.

Every partitioning scheme in this package -- hash, chunk, KnightKing-style
workload balancing, LDG, FENNEL, METIS-like, and MPGP -- returns a
:class:`PartitionResult`: a node→machine assignment plus the wall time it
took, so the partition-time tables (Table 5) fall straight out.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from repro.graph.csr import CSRGraph
from repro.runtime.executor import ExecutionContext
from repro.partition.streaming_orders import check_order
from repro.utils.rng import SeedLike
from repro.utils.validation import check_integral, check_positive


@dataclass
class PartitionConfig:
    """Knobs of the MPGP partitioners, mirroring ``WalkConfig``.

    Every field is validated at construction: ``gamma`` finite and
    positive, ``order`` one of
    :data:`~repro.partition.streaming_orders.STREAMING_ORDERS`,
    ``num_segments`` a positive integer.
    """

    gamma: float = 2.0
    order: str = "dfs+degree"
    num_segments: int = 4          # parallel variant only
    #: Where the parallel variant's independent stream segments are
    #: partitioned.  Segments share no state, so running them on worker
    #: processes (:func:`repro.runtime.executor.run_partition_segments`,
    #: the CSR + common-neighbour table shipped under the context's
    #: ``backing``) produces byte-identical assignments.  The
    #: *sequential* partitioner's stream is one order-dependent chain and
    #: takes no context.
    context: ExecutionContext = field(default_factory=ExecutionContext)
    seed: SeedLike = 0

    def __post_init__(self) -> None:
        check_positive("gamma", self.gamma)
        check_order(self.order)
        check_integral("num_segments", self.num_segments)
        check_positive("num_segments", self.num_segments)


@dataclass
class PartitionResult:
    """Outcome of partitioning a graph across ``num_parts`` machines."""

    assignment: np.ndarray  # int64[num_nodes] machine per node
    num_parts: int
    method: str
    seconds: float = 0.0
    extras: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.assignment = np.asarray(self.assignment, dtype=np.int64)
        if self.assignment.size and (
            self.assignment.min() < 0 or self.assignment.max() >= self.num_parts
        ):
            raise ValueError("assignment references parts outside range")

    def sizes(self) -> np.ndarray:
        """Node count per part."""
        return np.bincount(self.assignment, minlength=self.num_parts)

    def edge_loads(self, graph: CSRGraph) -> np.ndarray:
        """Stored-arc count per part (KnightKing's workload estimate)."""
        loads = np.zeros(self.num_parts, dtype=np.int64)
        np.add.at(loads, self.assignment, graph.degrees)
        return loads


class Partitioner(ABC):
    """Common interface: ``partition(graph, num_parts) -> PartitionResult``."""

    #: Short name used in benchmark tables.
    name: str = "base"

    @abstractmethod
    def _assign(self, graph: CSRGraph, num_parts: int) -> np.ndarray:
        """Produce the raw node→part assignment."""

    def partition(self, graph: CSRGraph, num_parts: int) -> PartitionResult:
        """Validate, time, and run the concrete assignment."""
        num_parts = int(check_integral("num_parts", num_parts))
        if num_parts <= 0:
            raise ValueError(f"num_parts must be positive, got {num_parts}")
        if num_parts > max(1, graph.num_nodes):
            raise ValueError(
                f"cannot split {graph.num_nodes} nodes into {num_parts} parts"
            )
        start = time.perf_counter()
        assignment = self._assign(graph, num_parts)
        elapsed = time.perf_counter() - start
        return PartitionResult(
            assignment=assignment,
            num_parts=num_parts,
            method=self.name,
            seconds=elapsed,
        )
