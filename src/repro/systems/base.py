"""Common interface for the end-to-end embedding systems.

Every system the paper measures -- DistGER, HuGE-D, KnightKing, PBG and
DistDGL -- is modelled as an :class:`EmbeddingSystem`: given a graph and a
machine count it runs its full pipeline (partition → sample → train, or the
system's own equivalent) and returns embeddings plus the phase timings,
traffic counters, and memory figures the paper's tables report.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.graph.csr import CSRGraph
from repro.runtime.cluster import Cluster
from repro.runtime.metrics import ClusterMetrics
from repro.utils.timer import Timer


@dataclass
class SystemResult:
    """Everything a benchmark needs from one end-to-end run."""

    system: str
    embeddings: np.ndarray
    timer: Timer
    metrics: ClusterMetrics
    simulated_seconds: float
    stats: Dict[str, float] = field(default_factory=dict)
    #: The sampled walk corpus (flat token block + offsets); set by the
    #: walk-based systems, ``None`` for PBG/DistDGL.  ``corpus.save(path)``
    #: writes the flat ``.npz`` format.
    corpus: Optional[object] = None
    #: Per-walk sampling machine ids, parallel with ``corpus`` walks; the
    #: dynamic-update path re-uses them for spliced-in resampled walks.
    walk_machines: Optional[np.ndarray] = None
    #: Node→machine partition assignment of the run (walk-based systems).
    assignment: Optional[np.ndarray] = None
    #: Final averaged :class:`repro.embedding.model.EmbeddingModel` in row
    #: space — carries ``phi_out``, which seeds warm-start re-training.
    model: Optional[object] = None

    @property
    def wall_seconds(self) -> float:
        """Measured end-to-end wall time (partition + sample + train)."""
        return self.timer.total

    def phase(self, name: str) -> float:
        return self.timer.get(name)

    @property
    def peak_memory_bytes(self) -> int:
        """Peak per-machine resident bytes observed during the run."""
        mems = self.metrics.peak_memory_bytes
        return int(max(mems)) if mems else 0


class EmbeddingSystem(ABC):
    """Interface: ``embed(graph) -> SystemResult``."""

    #: Display name used in benchmark tables.
    name: str = "base"

    def __init__(self, num_machines: int = 4, dim: int = 64,
                 epochs: int = 5, seed: int = 0) -> None:
        # epochs=5 default: with m-replica gradient-averaging sync the
        # effective step is ~1/m per token, so multi-machine runs need
        # several passes to match single-machine quality (measured in
        # tests/test_embedding_trainer.py).
        if num_machines <= 0:
            raise ValueError(f"num_machines must be positive, got {num_machines}")
        self.num_machines = num_machines
        self.dim = dim
        self.epochs = epochs
        self.seed = seed

    @abstractmethod
    def embed(self, graph: CSRGraph) -> SystemResult:
        """Run the system end-to-end on ``graph``."""

    def embedder(self):
        """``graph -> embeddings`` closure for the evaluation harnesses."""
        def _embed(graph: CSRGraph) -> np.ndarray:
            return self.embed(graph).embeddings
        return _embed

    def _result(
        self,
        embeddings: np.ndarray,
        timer: Timer,
        cluster: Cluster,
        stats: Optional[Dict[str, float]] = None,
        corpus: Optional[object] = None,
        walk_machines: Optional[np.ndarray] = None,
        assignment: Optional[np.ndarray] = None,
        model: Optional[object] = None,
    ) -> SystemResult:
        return SystemResult(
            system=self.name,
            embeddings=embeddings,
            timer=timer,
            metrics=cluster.metrics,
            simulated_seconds=cluster.simulated_seconds(),
            stats=stats or {},
            corpus=corpus,
            walk_machines=walk_machines,
            assignment=assignment,
            model=model,
        )
