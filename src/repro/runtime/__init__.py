"""Distributed runtime: the simulated cluster and the real executors.

Two layers live here.  The *simulated* layer stands in for the paper's
8-machine cluster: machine placement, BSP walker scheduling, byte-accurate
message accounting and a cost model that converts operation/traffic counts
into a simulated makespan (see DESIGN.md §1 for why this substitution
preserves the paper's efficiency comparisons).  The *execution* layer
makes the pipeline phases actually run on multiple OS processes:
:mod:`repro.runtime.executor` hosts the phased ``execution="process"``
backends (shared-memory buffers, slice descriptors) and the streaming
building blocks, and :mod:`repro.runtime.pipeline` composes them into the
``execution="pipeline"`` dataflow (partition ∥ sampling, round flushes ∥
the next round, training from the finished-event) -- all byte-identical
to serial execution under the counter-based RNG protocols.
"""

from repro.runtime.bsp import BSPEngine, BSPStats, SuperstepRecord
from repro.runtime.cluster import Cluster
from repro.runtime.executor import (
    ProcessExecutor,
    SharedArray,
    SharedArrayHandle,
    attach_shared_array,
    resolve_execution,
    resolved_worker_count,
)
from repro.runtime.message import (
    DeepWalkMessage,
    FullPathMessage,
    IncrementalMessage,
    Node2VecMessage,
    SyncMessage,
    WalkerMessage,
    message_size_ratio,
)
from repro.runtime.metrics import ClusterMetrics, CostModel
from repro.runtime.topology import (
    HeterogeneousCostModel,
    RackTopologyCostModel,
    rack_assignment,
)

__all__ = [
    "BSPEngine",
    "BSPStats",
    "Cluster",
    "ClusterMetrics",
    "CostModel",
    "ProcessExecutor",
    "SharedArray",
    "SharedArrayHandle",
    "attach_shared_array",
    "resolve_execution",
    "resolved_worker_count",
    "DeepWalkMessage",
    "FullPathMessage",
    "HeterogeneousCostModel",
    "IncrementalMessage",
    "Node2VecMessage",
    "RackTopologyCostModel",
    "SuperstepRecord",
    "SyncMessage",
    "WalkerMessage",
    "message_size_ratio",
    "rack_assignment",
]
