"""The simulated cluster.

A :class:`Cluster` stands in for the paper's 8-machine testbed: it owns the
node→machine placement produced by a partitioner, the root of the
per-walker counter streams, the metric counters, and the cost model that
converts counters into a simulated makespan.  All "distributed"
components (walk engine, trainer) take a cluster and record their work
and traffic against it.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.runtime.metrics import ClusterMetrics, CostModel
from repro.utils.rng import SeedLike, walker_seed_root


class Cluster:
    """A set of simulated machines with a node placement.

    Parameters
    ----------
    num_machines:
        Number of simulated machines (the paper uses 1-8).
    assignment:
        ``int64[num_nodes]`` machine id per graph node, as produced by any
        :mod:`repro.partition` partitioner.
    seed:
        Seed the per-walker counter streams derive from.
    cost_model:
        Optional :class:`CostModel` override.
    """

    def __init__(
        self,
        num_machines: int,
        assignment: np.ndarray,
        seed: SeedLike = None,
        cost_model: Optional[CostModel] = None,
    ) -> None:
        if num_machines <= 0:
            raise ValueError(f"num_machines must be positive, got {num_machines}")
        assignment = np.asarray(assignment, dtype=np.int64)
        if assignment.size and (assignment.min() < 0 or assignment.max() >= num_machines):
            raise ValueError("assignment references machines outside the cluster")
        self.num_machines = num_machines
        self.assignment = assignment
        self.metrics = ClusterMetrics(num_machines)
        self.cost_model = cost_model or CostModel()
        # Root of the per-walker counter streams of repro.utils.rng.
        self.walk_seed_root: int = walker_seed_root(seed)

    # ------------------------------------------------------------------ #
    # Placement queries
    # ------------------------------------------------------------------ #

    def machine_of(self, node: int) -> int:
        """Machine hosting ``node`` (and its adjacency)."""
        return int(self.assignment[node])

    def is_local(self, u: int, v: int) -> bool:
        """Whether ``u`` and ``v`` live on the same machine."""
        return self.assignment[u] == self.assignment[v]

    def nodes_of(self, machine: int) -> np.ndarray:
        """All node ids placed on ``machine``."""
        return np.flatnonzero(self.assignment == machine)

    def partition_sizes(self) -> np.ndarray:
        """Node count per machine."""
        return np.bincount(self.assignment, minlength=self.num_machines)

    # ------------------------------------------------------------------ #
    # Cost reporting
    # ------------------------------------------------------------------ #

    def simulated_seconds(self) -> float:
        """Simulated makespan of everything recorded so far."""
        return self.cost_model.makespan(self.metrics)

    def reset_metrics(self) -> None:
        """Clear counters (placement and the walk seed root are kept)."""
        self.metrics = ClusterMetrics(self.num_machines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        sizes = self.partition_sizes() if self.assignment.size else []
        return f"Cluster(machines={self.num_machines}, partition_sizes={list(sizes)})"
