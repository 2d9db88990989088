"""Graph partitioning subsystem.

Implements MPGP (the paper's multi-proximity-aware streaming partitioner,
§3.2) alongside every baseline the paper discusses: hash/chunk,
KnightKing's workload balancing, LDG, FENNEL and a METIS-like multilevel
partitioner, plus streaming-order utilities, galloping intersection, and
partition quality metrics.
"""

from repro.partition.balance import WorkloadBalancePartitioner
from repro.partition.base import PartitionConfig, Partitioner, PartitionResult
from repro.partition.fennel import FennelPartitioner
from repro.partition.galloping import (
    galloping_intersect,
    galloping_intersect_size,
    intersect_with_membership,
)
from repro.partition.hash import ChunkPartitioner, HashPartitioner
from repro.partition.ldg import LDGPartitioner
from repro.partition.metis_like import MetisLikePartitioner
from repro.partition.mpgp import MPGPPartitioner, ParallelMPGPPartitioner
from repro.partition.refinement import (
    RefinementStats,
    refine_partition,
    refine_result,
)
from repro.partition.quality import (
    PartitionQuality,
    edge_balance,
    edge_cut,
    evaluate,
    expected_walk_locality,
    node_balance,
)
from repro.partition.streaming_orders import (
    STREAMING_ORDERS,
    bfs_degree_order,
    bfs_order,
    dfs_degree_order,
    dfs_order,
    get_order,
    random_order,
)

__all__ = [
    "ChunkPartitioner",
    "FennelPartitioner",
    "HashPartitioner",
    "LDGPartitioner",
    "MPGPPartitioner",
    "MetisLikePartitioner",
    "ParallelMPGPPartitioner",
    "PartitionConfig",
    "PartitionQuality",
    "PartitionResult",
    "Partitioner",
    "RefinementStats",
    "STREAMING_ORDERS",
    "WorkloadBalancePartitioner",
    "bfs_degree_order",
    "bfs_order",
    "dfs_degree_order",
    "dfs_order",
    "edge_balance",
    "edge_cut",
    "evaluate",
    "expected_walk_locality",
    "galloping_intersect",
    "galloping_intersect_size",
    "get_order",
    "intersect_with_membership",
    "node_balance",
    "random_order",
    "refine_partition",
    "refine_result",
]
