"""Node streaming orders for streaming partitioners (paper §3.2, Fig. 11).

The order in which nodes arrive materially affects streaming partition
quality.  The paper compares random, BFS, DFS and their degree-guided
variants, recommending **DFS+degree** for sequential MPGP and
**BFS+degree** for parallel MPGP.  Degree-guided means: among the
unexplored neighbours of the current node, visit the highest-degree one
first (this keeps the galloping intersection's "small set" genuinely
small).

All orders cover every node (disconnected components are restarted from the
highest-degree unvisited node) and are deterministic given a seed.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, List

import numpy as np

from repro.graph.csr import CSRGraph
from repro.utils.rng import SeedLike, default_rng


def random_order(graph: CSRGraph, seed: SeedLike = None) -> np.ndarray:
    """Uniformly random permutation of the nodes."""
    rng = default_rng(seed)
    return rng.permutation(graph.num_nodes).astype(np.int64)


def _traversal(
    graph: CSRGraph,
    breadth_first: bool,
    by_degree: bool,
    seed: SeedLike = None,
) -> np.ndarray:
    n = graph.num_nodes
    if n == 0:
        return np.empty(0, dtype=np.int64)
    rng = default_rng(seed)
    degrees = graph.degrees
    visited = np.zeros(n, dtype=bool)
    order: List[int] = []
    # Restart roots: highest degree first for degree-guided variants,
    # random otherwise.
    roots = np.argsort(-degrees, kind="stable") if by_degree else rng.permutation(n)
    for root in roots:
        root = int(root)
        if visited[root]:
            continue
        visited[root] = True
        frontier: deque = deque([root])
        while frontier:
            u = frontier.popleft() if breadth_first else frontier.pop()
            order.append(u)
            nbrs = graph.neighbors(u)
            unvisited = nbrs[~visited[nbrs]]
            if unvisited.size == 0:
                continue
            if by_degree:
                # Highest-degree neighbour should be dequeued first: for BFS
                # append in descending order; for DFS (stack) push ascending
                # so the largest is popped first.
                ranked = unvisited[np.argsort(-degrees[unvisited], kind="stable")]
                if not breadth_first:
                    ranked = ranked[::-1]
            else:
                ranked = rng.permutation(unvisited)
            for v in ranked:
                if not visited[v]:
                    visited[v] = True
                    frontier.append(int(v))
    return np.asarray(order, dtype=np.int64)


def bfs_order(graph: CSRGraph, seed: SeedLike = None) -> np.ndarray:
    """Breadth-first order with random tie-breaking."""
    return _traversal(graph, breadth_first=True, by_degree=False, seed=seed)


def dfs_order(graph: CSRGraph, seed: SeedLike = None) -> np.ndarray:
    """Depth-first order with random tie-breaking."""
    return _traversal(graph, breadth_first=False, by_degree=False, seed=seed)


def bfs_degree_order(graph: CSRGraph, seed: SeedLike = None) -> np.ndarray:
    """BFS visiting highest-degree unexplored neighbours first."""
    return _traversal(graph, breadth_first=True, by_degree=True, seed=seed)


def dfs_degree_order(graph: CSRGraph, seed: SeedLike = None) -> np.ndarray:
    """DFS visiting highest-degree unexplored neighbours first (the paper's
    recommended order for sequential MPGP)."""
    return _traversal(graph, breadth_first=False, by_degree=True, seed=seed)


STREAMING_ORDERS: Dict[str, Callable[[CSRGraph, SeedLike], np.ndarray]] = {
    "random": random_order,
    "bfs": bfs_order,
    "dfs": dfs_order,
    "bfs+degree": bfs_degree_order,
    "dfs+degree": dfs_degree_order,
}


def check_order(name: str) -> str:
    """Validate a streaming-order name (case-insensitive, like
    :func:`get_order`) where a partitioner is configured, so a typo fails
    at construction with the options listed rather than inside
    ``partition()``."""
    if not isinstance(name, str) or name.lower() not in STREAMING_ORDERS:
        raise ValueError(f"unknown streaming order {name!r}; options: "
                         f"{sorted(STREAMING_ORDERS)}")
    return name


def get_order(name: str, graph: CSRGraph, seed: SeedLike = None) -> np.ndarray:
    """Look up a streaming order by name (see :data:`STREAMING_ORDERS`)."""
    key = name.lower()
    if key not in STREAMING_ORDERS:
        raise KeyError(f"unknown streaming order {name!r}; options: "
                       f"{sorted(STREAMING_ORDERS)}")
    return STREAMING_ORDERS[key](graph, seed)
