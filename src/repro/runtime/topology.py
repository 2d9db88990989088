"""Topology-aware cost models: stragglers and rack-level networks.

The paper's testbed is homogeneous (8 identical machines, one flat
100 Gbps switch), and :class:`repro.runtime.metrics.CostModel` mirrors
that.  Real deployments are messier in two ways that interact directly
with DistGER's design claims:

* **Stragglers** -- machines with different effective speeds.  The BSP
  supersteps run at the pace of the slowest machine, which is why MPGP's
  dynamic load-balancing term (Eq. 15) matters:
  :class:`HeterogeneousCostModel` prices per-machine work against
  per-machine speed factors.
* **Oversubscribed racks** -- inter-rack bandwidth below intra-rack
  bandwidth.  Cross-machine messages are not all equal: traffic that
  stays inside a rack is cheap.  :class:`RackTopologyCostModel` prices
  the per-pair byte matrix (recorded by the walk accounting) against a
  two-tier network, which makes MPGP's 45% message reduction (Fig. 10(c))
  worth *more* than on a flat switch.

Both models are drop-in replacements for ``CostModel`` on a
:class:`repro.runtime.cluster.Cluster`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from repro.runtime.metrics import ClusterMetrics, CostModel


def rack_assignment(num_machines: int, num_racks: int) -> List[int]:
    """Contiguous machine→rack mapping (machines per rack as equal as
    possible); the conventional placement for sequential machine ids."""
    if num_machines <= 0:
        raise ValueError(f"num_machines must be positive, got {num_machines}")
    if num_racks <= 0:
        raise ValueError(f"num_racks must be positive, got {num_racks}")
    if num_racks > num_machines:
        raise ValueError("cannot have more racks than machines")
    return [min(m * num_racks // num_machines, num_racks - 1)
            for m in range(num_machines)]


@dataclass(frozen=True)
class HeterogeneousCostModel(CostModel):
    """A cluster whose machines run at different speeds.

    ``speed_factors[m]`` multiplies the base ``compute_rate`` for machine
    ``m`` (1.0 = nominal, 0.5 = half-speed straggler).  The makespan's
    compute term becomes the *slowest-weighted* machine rather than the
    busiest, so a balanced partition on an imbalanced cluster still
    straggles -- the deployment reality MPGP's γ slack trades against.
    """

    speed_factors: Sequence[float] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.speed_factors:
            raise ValueError("speed_factors must name every machine")
        if any(f <= 0 for f in self.speed_factors):
            raise ValueError("speed factors must be positive")

    def compute_seconds(self, metrics: ClusterMetrics) -> float:
        if metrics.num_machines != len(self.speed_factors):
            raise ValueError(
                f"cost model covers {len(self.speed_factors)} machines, "
                f"metrics cover {metrics.num_machines}"
            )
        return max(
            units / (self.compute_rate * factor)
            for units, factor in zip(metrics.compute_units,
                                     self.speed_factors)
        )

    def makespan(self, metrics: ClusterMetrics) -> float:
        network_time = (
            metrics.total_bytes / self.bandwidth
            + (metrics.messages_sent + metrics.sync_messages) * self.latency
        )
        return self.compute_seconds(metrics) + network_time


@dataclass(frozen=True)
class RackTopologyCostModel(CostModel):
    """Two-tier network: fast intra-rack links, oversubscribed core.

    ``racks[m]`` is machine ``m``'s rack.  Walker traffic recorded with
    endpoints (the walk accounting always provides them) is split into
    intra-rack bytes priced at ``bandwidth`` and inter-rack bytes priced
    at ``bandwidth / oversubscription``.  Traffic without endpoint
    information -- model synchronisation broadcasts and any legacy
    recording -- is priced at the inter-rack rate, the conservative
    choice for all-to-all exchanges.
    """

    racks: Sequence[int] = field(default_factory=tuple)
    oversubscription: float = 4.0

    def __post_init__(self) -> None:
        if not self.racks:
            raise ValueError("racks must name every machine")
        if min(self.racks) < 0:
            raise ValueError("rack ids must be non-negative")
        if self.oversubscription < 1.0:
            raise ValueError(
                f"oversubscription must be >= 1, got {self.oversubscription}"
            )

    def split_bytes(self, metrics: ClusterMetrics) -> tuple:
        """``(intra_rack_bytes, inter_rack_bytes)`` of all recorded traffic."""
        if metrics.num_machines != len(self.racks):
            raise ValueError(
                f"cost model covers {len(self.racks)} machines, "
                f"metrics cover {metrics.num_machines}"
            )
        intra = 0
        inter = 0
        matrix = metrics.message_byte_matrix
        for src in range(metrics.num_machines):
            for dst in range(metrics.num_machines):
                if self.racks[src] == self.racks[dst]:
                    intra += matrix[src][dst]
                else:
                    inter += matrix[src][dst]
        # Bytes recorded without endpoints (sync broadcasts) cross the core.
        unattributed = metrics.total_bytes - intra - inter
        return intra, inter + max(0, unattributed)

    def network_seconds(self, metrics: ClusterMetrics) -> float:
        intra, inter = self.split_bytes(metrics)
        return (
            intra / self.bandwidth
            + inter / (self.bandwidth / self.oversubscription)
            + (metrics.messages_sent + metrics.sync_messages) * self.latency
        )

    def makespan(self, metrics: ClusterMetrics) -> float:
        return self.compute_seconds(metrics) + self.network_seconds(metrics)
