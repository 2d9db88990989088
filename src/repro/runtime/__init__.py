"""Distributed runtime: the simulated cluster and the real executors.

Two layers live here.  The *simulated* layer stands in for the paper's
8-machine cluster: machine placement, byte-accurate message accounting
and a cost model that converts operation/traffic counts into a simulated
makespan (``docs/ARCHITECTURE.md`` §1: the counters are exact, so
the paper's machine-count comparisons are deterministic on any host).  The *execution* layer
makes the pipeline phases actually run on multiple OS processes:
:mod:`repro.runtime.executor` hosts the run's one
:class:`~repro.runtime.executor.ExecutionContext`, the phased
``execution="process"`` backends (shared-memory buffers, slice
descriptors) and the streaming building blocks, and :mod:`repro.runtime.pipeline` composes them into the
``execution="pipeline"`` dataflow (partition ∥ sampling, round flushes ∥
the next round, training from the finished-event) -- all byte-identical
to serial execution under the counter-based RNG protocols.
"""

from repro.runtime.cluster import Cluster
from repro.runtime.executor import (
    ExecutionContext,
    ProcessExecutor,
    SharedArray,
    SharedArrayHandle,
    attach_shared_array,
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
    "Cluster",
    "ClusterMetrics",
    "CostModel",
    "ExecutionContext",
    "ProcessExecutor",
    "SharedArray",
    "SharedArrayHandle",
    "attach_shared_array",
    "DeepWalkMessage",
    "FullPathMessage",
    "HeterogeneousCostModel",
    "IncrementalMessage",
    "Node2VecMessage",
    "RackTopologyCostModel",
    "SyncMessage",
    "WalkerMessage",
    "message_size_ratio",
    "rack_assignment",
]
