"""Bipartite user-item graphs (the recommendation workload of §1).

The paper motivates billion-edge embedding with Alibaba's user-product
graph -- "a giant bipartite graph for its recommendation tasks" [60].
That graph is proprietary, so this generator builds the synthetic
equivalent: users and items with planted preference groups (users
interact mostly within their group) and Zipf-skewed item popularity, the
two properties that make embedding-based recommendation work and that
drive its evaluation.

Node ids: users are ``0 .. num_users-1``, items are
``num_users .. num_users+num_items-1`` in one :class:`CSRGraph`, so every
walk/embedding component applies unchanged; :class:`BipartiteInfo` keeps
the side metadata.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.csr import CSRGraph
from repro.utils.rng import SeedLike, default_rng
from repro.utils.validation import check_positive, check_probability


@dataclass
class BipartiteInfo:
    """Side metadata of a generated user-item graph."""

    num_users: int
    num_items: int
    #: preference group per user (int64[num_users])
    user_groups: np.ndarray
    #: group per item (int64[num_items])
    item_groups: np.ndarray

    @property
    def item_ids(self) -> np.ndarray:
        return np.arange(self.num_users, self.num_users + self.num_items,
                         dtype=np.int64)


def bipartite_preference_graph(
    num_users: int,
    num_items: int,
    num_groups: int = 4,
    interactions_per_user: int = 8,
    affinity: float = 0.8,
    zipf_exponent: float = 1.2,
    seed: SeedLike = None,
) -> tuple[CSRGraph, BipartiteInfo]:
    """Generate a user-item interaction graph with planted preferences.

    Each user draws ``interactions_per_user`` distinct items: with
    probability ``affinity`` from its own preference group (popularity
    ∝ Zipf with ``zipf_exponent`` within the group), otherwise uniformly
    from the whole catalogue.  Higher affinity makes the recommendation
    task easier; ``affinity = 1/num_groups``-ish removes the signal.

    Returns ``(graph, info)`` with an undirected CSR graph over
    ``num_users + num_items`` nodes.
    """
    check_positive("num_users", num_users)
    check_positive("num_items", num_items)
    check_positive("num_groups", num_groups)
    check_positive("interactions_per_user", interactions_per_user)
    check_probability("affinity", affinity)
    if zipf_exponent <= 0:
        raise ValueError(f"zipf_exponent must be positive, got {zipf_exponent}")
    if num_items < num_groups:
        raise ValueError("need at least one item per group")
    rng = default_rng(seed)

    user_groups = rng.integers(0, num_groups, size=num_users)
    item_groups = np.sort(rng.integers(0, num_groups, size=num_items))
    # Guarantee every group owns at least one item.
    for g in range(num_groups):
        if not np.any(item_groups == g):
            item_groups[rng.integers(0, num_items)] = g

    # Zipf popularity within each group: rank r gets weight r^-s.
    popularity = np.zeros(num_items, dtype=np.float64)
    for g in range(num_groups):
        members = np.flatnonzero(item_groups == g)
        ranks = rng.permutation(members.size) + 1
        popularity[members] = ranks.astype(np.float64) ** (-zipf_exponent)

    edges = []
    all_probs = popularity / popularity.sum()
    for user in range(num_users):
        group_items = np.flatnonzero(item_groups == user_groups[user])
        group_probs = popularity[group_items]
        group_probs = group_probs / group_probs.sum()
        chosen: set = set()
        budget = min(interactions_per_user, num_items)
        guard = 0
        while len(chosen) < budget and guard < 50 * budget:
            guard += 1
            if rng.random() < affinity:
                item = int(group_items[rng.choice(group_items.size,
                                                  p=group_probs)])
            else:
                item = int(rng.choice(num_items, p=all_probs))
            chosen.add(item)
        edges.extend((user, num_users + item) for item in chosen)

    graph = CSRGraph.from_edges(
        np.asarray(edges, dtype=np.int64),
        num_nodes=num_users + num_items,
    )
    info = BipartiteInfo(
        num_users=num_users,
        num_items=num_items,
        user_groups=user_groups,
        item_groups=item_groups,
    )
    return graph, info
