"""Walk invalidation: which corpus walks does an edge change make stale?

The flat corpus layout (one contiguous ``tokens`` block + per-walk
``offsets``) makes this a handful of vectorized passes instead of a
per-walk scan.  Two audits are provided, forming a correctness ladder:

* **arc audit** — a walk is stale when one of its consecutive token
  pairs traverses a changed arc.  One pass over the pair keys
  ``tokens[:-1] * n + tokens[1:]`` against the sorted changed-arc keys.
  This is the cheapest scan, but it is *incomplete* under rejection
  sampling: every kernel draws the candidate index from the *current*
  adjacency row, so any change to ``N(u)`` — an insertion the old walk
  never traversed, or a deletion of an arc the walk didn't take —
  shifts the transition distribution at ``u`` even though no traversed
  pair changed.  Use it as a diagnostic or fast pre-filter.
* **node audit** — a walk is stale when it visits any *affected* node.
  :func:`affected_nodes` derives that set from the changed arcs
  kernel-aware: for DeepWalk/node2vec the transition at a step depends
  only on the adjacency of nodes the walk itself visits, so the dirty
  endpoints suffice; for the HuGE kernels the acceptance weight is the
  common-neighbour count ``|N(u) ∩ N(v)|`` of the current node and the
  candidate, so the dirty set must expand to the neighbours of changed
  endpoints (in the old *and* new graphs) as well.

Because walk randomness is counter-based (keyed by walk id and step,
never by history), re-running a *non*-stale walk on the new graph
reproduces its bytes exactly — conservatism in the audit costs
resampling time, never correctness.  ``audit="auto"`` picks the node
audit with the kernel-appropriate expansion; it is what
:func:`repro.dynamic.update_embedding` uses.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.graph.csr import CSRGraph
from repro.walks.corpus import _concat_ranges
from repro.walks.kernels import kernel_class

__all__ = ["affected_nodes", "stale_walk_ids", "audit_walks"]


def _expand_with_neighbors(nodes: np.ndarray, graph: CSRGraph) -> np.ndarray:
    """``nodes`` ∪ their out-neighbours in ``graph`` (clipped to |V|)."""
    inside = nodes[nodes < graph.num_nodes]
    if inside.size == 0:
        return nodes
    starts = graph.indptr[inside]
    lengths = graph.indptr[inside + 1] - starts
    pos = _concat_ranges(starts, lengths)
    if pos.size == 0:
        return nodes
    return np.union1d(nodes, graph.indices[pos])


def affected_nodes(
    changed_arcs: np.ndarray,
    kernel: Optional[str] = None,
    old_graph: Optional[CSRGraph] = None,
    new_graph: Optional[CSRGraph] = None,
) -> np.ndarray:
    """Nodes whose outgoing transition distribution may have changed.

    ``changed_arcs`` is the ``(m, 2)`` dirty-arc set from
    :meth:`DeltaCSR.changed_arcs`.  The endpoints are always affected;
    for the ``neighbor_sensitive`` kernels (HuGE, HuGE+; ``kernel`` is
    a case-insensitive name) the set additionally expands to their
    neighbours in the old and new graphs (acceptance weights are
    common-neighbour counts, which a change to either endpoint's row
    perturbs for every adjacent walker position).
    """
    changed_arcs = np.asarray(changed_arcs, dtype=np.int64).reshape(-1, 2)
    dirty = np.unique(changed_arcs)
    if dirty.size == 0:
        return dirty
    if kernel is not None and kernel_class(kernel).neighbor_sensitive:
        for graph in (old_graph, new_graph):
            if graph is not None:
                dirty = _expand_with_neighbors(dirty, graph)
    return dirty


def _per_walk_any(hit: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-walk OR-reduction of a boolean token-position array.

    Zero-length-safe: uses cumulative-sum differences over the walk
    ranges instead of ``reduceat`` (which mishandles empty slices).
    """
    csum = np.zeros(hit.size + 1, dtype=np.int64)
    np.cumsum(hit, out=csum[1:])
    return (csum[offsets[1:]] - csum[offsets[:-1]]) > 0


def stale_walk_ids(
    tokens: np.ndarray,
    offsets: np.ndarray,
    *,
    nodes: Optional[np.ndarray] = None,
    arcs: Optional[np.ndarray] = None,
    num_nodes: Optional[int] = None,
) -> np.ndarray:
    """Walk ids whose token sequence trips the given audit(s).

    ``nodes`` marks a walk stale when any token is in the set (node
    audit); ``arcs`` when any consecutive in-walk pair equals a changed
    arc (arc audit).  Both may be given; the union is returned.  One
    vectorized pass each over the flat token block.
    """
    tokens = np.asarray(tokens)
    offsets = np.asarray(offsets)
    n_walks = offsets.size - 1
    stale = np.zeros(n_walks, dtype=bool)

    if nodes is not None and len(nodes):
        nodes = np.asarray(nodes, dtype=np.int64)
        n = int(num_nodes) if num_nodes is not None else (
            int(max(tokens.max(initial=0), nodes.max())) + 1)
        mask = np.zeros(n, dtype=bool)
        mask[nodes[nodes < n]] = True
        stale |= _per_walk_any(mask[tokens], offsets)

    arcs = None if arcs is None else np.asarray(arcs,
                                                dtype=np.int64).reshape(-1, 2)
    if arcs is not None and len(arcs) and tokens.size > 1:
        n = int(num_nodes) if num_nodes is not None else (
            int(max(tokens.max(initial=0), arcs.max())) + 1)
        changed_keys = np.unique(arcs[:, 0] * n + arcs[:, 1])
        pair_keys = tokens[:-1] * n + tokens[1:]
        idx = np.searchsorted(changed_keys, pair_keys)
        idx[idx == changed_keys.size] = 0
        pair_hit = np.zeros(tokens.size, dtype=bool)
        pair_hit[:-1] = changed_keys[idx] == pair_keys
        # Pairs straddling a walk boundary belong to no walk.
        pair_hit[offsets[1:] - 1] = False
        stale |= _per_walk_any(pair_hit, offsets)

    return np.flatnonzero(stale).astype(np.int64)


def audit_walks(
    corpus,
    changed_arcs: np.ndarray,
    *,
    kernel: Optional[str] = None,
    old_graph: Optional[CSRGraph] = None,
    new_graph: Optional[CSRGraph] = None,
    audit: str = "auto",
) -> np.ndarray:
    """Stale walk ids of a :class:`~repro.walks.corpus.Corpus`.

    ``audit="auto"``/``"node"`` runs the kernel-aware node audit (the
    correct default); ``"arc"`` runs the traversed-pair scan only (fast,
    incomplete under insertions — see the module docstring).
    """
    if audit not in ("auto", "node", "arc"):
        raise ValueError(f"audit must be auto|node|arc, got {audit!r}")
    num_nodes = max(
        corpus.num_nodes,
        old_graph.num_nodes if old_graph is not None else 0,
        new_graph.num_nodes if new_graph is not None else 0,
    )
    if audit == "arc":
        return stale_walk_ids(corpus.tokens, corpus.offsets,
                              arcs=changed_arcs, num_nodes=num_nodes)
    dirty = affected_nodes(changed_arcs, kernel=kernel,
                           old_graph=old_graph, new_graph=new_graph)
    return stale_walk_ids(corpus.tokens, corpus.offsets,
                          nodes=dirty, num_nodes=num_nodes)
