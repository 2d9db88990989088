"""Walk oracles: the per-walker loop engine and exact walk distributions.

:class:`LoopWalkEngine` runs every walk mode through the per-walker BSP
loop the library keeps for HuGE-D's ``fullpath`` mode.  Under the walker
RNG protocol it must land on the lock-step rounds' bytes for ``incom`` and
``routine`` too -- same corpus, stats and cluster metrics -- which is the
walk engine's reference parity.  :func:`accepted_draws` samples a
kernel's scalar reference from a seeded generator, :func:`routine_corpus`
builds a routine corpus through the engine.

Every sampler in :mod:`repro.walks` is stochastic; the functions below
compute the distributions they *should* follow, by direct evaluation of
the paper's formulas, so tests can compare empirical behaviour against
ground truth:

* :func:`node2vec_transition_distribution` -- the exact second-order
  probabilities of §2.1 that both the rejection kernel and the alias
  tables must reproduce;
* :func:`huge_acceptance_matrix` -- Eq. 3's acceptance probability for
  every arc (HuGE's effective transition bias, since rejected hops
  retry uniformly);
* :func:`first_order_stationary_distribution` -- the degree-proportional
  stationary law of uniform walks (what corpus occupancy converges to);
* :func:`expected_walk_entropy` -- Monte-Carlo-free entropy of an
  occupancy vector, the quantity the InCoM accumulator tracks.

These are O(|V|²)-ish by design -- correctness oracles for stand-in
scale, not production paths.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.runtime.cluster import Cluster
from repro.utils.validation import check_positive
from repro.walks.engine import DistributedWalkEngine, WalkConfig
from repro.walks.kernels import HuGEKernel


class LoopWalkEngine(DistributedWalkEngine):
    """:class:`DistributedWalkEngine` with every mode on the per-walker
    loop -- one walker, one trial at a time, in-process.

    The lock-step consumer loop (``_run_rounds``) is replaced by the loop
    rounds ``fullpath`` runs on, so whatever block widths, executor or
    accounting the production rounds use, they must agree with this.
    """

    def _run_rounds(self, sources, rounds, count_rule, degrees, corpus,
                    stats, walk_machines, partition_join) -> None:
        if partition_join is not None:
            raise ValueError("the loop reference takes no partition join")
        self._run_loop_rounds(sources, rounds, count_rule, degrees, corpus,
                              stats, walk_machines)


def accepted_draws(kernel, current: int, previous: int, rng,
                   count: int) -> np.ndarray:
    """``count`` accepted hops of ``kernel`` from ``current`` (arrived
    from ``previous``), every trial fed the two uniforms it consumes from
    the generator ``rng`` -- rejections retry, as in a walk."""
    draws = []
    while len(draws) < count:
        u1, u2 = rng.random(2)
        out = kernel.step_with_uniforms(current, previous, u1, u2, False)
        if out is not None:
            draws.append(int(out))
    return np.array(draws)


def routine_corpus(graph: CSRGraph, walk_length: int, walks_per_node: int,
                   seed: int = 0, kernel: str = "deepwalk", sources=None):
    """The routine corpus (``walks_per_node`` walks of ``walk_length``
    tokens from every source) as the engine samples it on one machine."""
    cluster = Cluster(1, np.zeros(graph.num_nodes, dtype=np.int64),
                      seed=seed)
    config = WalkConfig.routine(kernel=kernel, walk_length=walk_length,
                                walks_per_node=walks_per_node)
    return DistributedWalkEngine(graph, cluster, config).run(sources).corpus


def node2vec_transition_distribution(
    graph: CSRGraph, previous: int, current: int,
    p: float = 1.0, q: float = 1.0,
) -> dict:
    """Exact ``P(v | previous, current)`` of the node2vec walk (§2.1).

    ``previous < 0`` means the first (first-order) step.  Returns a
    ``{node: probability}`` dict over the neighbours of ``current``.
    """
    check_positive("p", p)
    check_positive("q", q)
    weights = {}
    for v in graph.neighbors(current):
        v = int(v)
        if previous < 0:
            pi = 1.0
        elif v == previous:
            pi = 1.0 / p
        elif graph.has_edge(previous, v):
            pi = 1.0
        else:
            pi = 1.0 / q
        weights[v] = pi * graph.edge_weight(current, v)
    total = sum(weights.values())
    if total <= 0:
        raise ValueError(f"node {current} has no walkable neighbours")
    return {v: w / total for v, w in weights.items()}


def huge_acceptance_matrix(graph: CSRGraph) -> np.ndarray:
    """Eq. 3's acceptance probability ``P(u, v)`` for every stored arc.

    Returned as a dense ``float64[num_nodes, num_nodes]`` with zeros on
    non-arcs -- convenient for assertions; use stand-in-scale graphs only.
    """
    kernel = HuGEKernel(graph)
    n = graph.num_nodes
    out = np.zeros((n, n), dtype=np.float64)
    for u in range(n):
        for v in graph.neighbors(u):
            out[u, int(v)] = kernel.acceptance_probability(u, int(v))
    return out


def huge_effective_transition_matrix(graph: CSRGraph) -> np.ndarray:
    """The walking-backtracking chain's effective per-step distribution.

    A HuGE step proposes uniformly over ``N(u)`` and accepts with Eq. 3;
    rejection re-proposes.  Conditioned on eventually accepting, the hop
    distribution is acceptance-weighted uniform:
    ``P(v | u) = P(u,v) / Σ_w P(u,w)``.  Rows of dead-end nodes are zero.
    """
    accept = huge_acceptance_matrix(graph)
    row_sums = accept.sum(axis=1, keepdims=True)
    out = np.divide(accept, row_sums, out=np.zeros_like(accept),
                    where=row_sums > 0)
    return out


def first_order_stationary_distribution(graph: CSRGraph) -> np.ndarray:
    """Stationary law of the uniform first-order walk: ``deg(v) / 2|E|``.

    Only defined for undirected graphs (where the chain is reversible and
    the closed form holds); raises otherwise.
    """
    if graph.directed:
        raise ValueError(
            "closed-form stationary distribution requires an undirected graph"
        )
    deg = graph.degrees.astype(np.float64)
    total = deg.sum()
    if total <= 0:
        raise ValueError("graph has no edges")
    return deg / total


def stationary_distribution_power_iteration(
    transition: np.ndarray, tol: float = 1e-12, max_iters: int = 10_000
) -> np.ndarray:
    """Stationary distribution of a row-stochastic matrix by power
    iteration (for chains without a closed form, e.g. HuGE's).

    Rows that sum to zero (dead ends) are treated as self-loops so the
    iteration stays stochastic.
    """
    t = np.asarray(transition, dtype=np.float64).copy()
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise ValueError(f"transition must be square, got {t.shape}")
    n = t.shape[0]
    dead = t.sum(axis=1) <= 0
    t[dead, :] = 0.0
    t[dead, dead] = 1.0
    pi = np.full(n, 1.0 / n)
    for _ in range(max_iters):
        nxt = pi @ t
        if np.abs(nxt - pi).max() < tol:
            return nxt / nxt.sum()
        pi = nxt
    return pi / pi.sum()


def expected_walk_entropy(occupancy: np.ndarray) -> float:
    """Shannon entropy (bits) of a non-negative occupancy vector (Eq. 4)."""
    occ = np.asarray(occupancy, dtype=np.float64)
    total = occ.sum()
    if total <= 0:
        raise ValueError("occupancy must have positive mass")
    probs = occ[occ > 0] / total
    return float(-(probs * np.log2(probs)).sum())
