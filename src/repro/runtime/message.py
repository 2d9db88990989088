"""Cross-machine walker messages and their byte-accurate sizes (paper §3.1).

The efficiency argument between HuGE-D and DistGER is partly a message-size
argument, so the simulator models it exactly:

* **KnightKing / node2vec** messages carry
  ``[walk_id, steps, node_id, prev_node_id]`` -- 4 × 8 B = **32 bytes**.
* **HuGE-D (full-path)** messages carry
  ``[walk_id, steps, node_id, path_info]`` -- **24 + 8·L bytes**, linear in
  the current walk length ``L``.
* **DistGER (InCoM)** messages carry
  ``[walker_id, steps, node_id, H, L, E(H), E(L), E(HL), E(H²), E(L²)]`` --
  a constant **80 bytes** regardless of walk length (Example 1: up to 8.3×
  smaller than HuGE-D at L = 80).

Each dataclass implements ``byte_size()`` with these formulas; the metrics
layer accumulates them whenever a walker hops machines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

BYTES_PER_FIELD = 8


@dataclass
class WalkerMessage:
    """Base fields every walker message carries."""

    walk_id: int
    steps: int
    node_id: int

    def byte_size(self) -> int:  # pragma: no cover - abstract-ish
        raise NotImplementedError


@dataclass
class Node2VecMessage(WalkerMessage):
    """KnightKing-style second-order walk message: constant 32 bytes."""

    prev_node_id: int = -1

    def byte_size(self) -> int:
        return 4 * BYTES_PER_FIELD


@dataclass
class DeepWalkMessage(WalkerMessage):
    """First-order walk message: no previous node needed, 24 bytes."""

    def byte_size(self) -> int:
        return 3 * BYTES_PER_FIELD


@dataclass
class FullPathMessage(WalkerMessage):
    """HuGE-D message carrying the entire generated path: 24 + 8L bytes."""

    path: List[int] = field(default_factory=list)

    def byte_size(self) -> int:
        return 3 * BYTES_PER_FIELD + BYTES_PER_FIELD * len(self.path)


@dataclass
class IncrementalMessage(WalkerMessage):
    """DistGER InCoM message: constant-size incremental state, 80 bytes.

    Fields beyond the base three are the walk entropy ``H``, length ``L``
    and the five regression moments of Eq. 13.  ``entropy_s`` is the
    auxiliary ``Σ n log n`` accumulator; it rides in the same 8-byte slot
    budget as ``H`` (both derivable from one another given ``L``), so the
    wire size stays the paper's 10 fields × 8 B = 80 B.
    """

    entropy_h: float = 0.0
    entropy_s: float = 0.0
    length: int = 0
    e_h: float = 0.0
    e_l: float = 0.0
    e_hl: float = 0.0
    e_h2: float = 0.0
    e_l2: float = 0.0

    def byte_size(self) -> int:
        return 10 * BYTES_PER_FIELD


@dataclass
class SyncMessage:
    """Model-synchronisation payload between learner machines.

    ``num_vectors`` embedding rows of ``dim`` float32 entries plus the row
    ids.  Used by both full-model sync and hotness-block sync so the
    network-load comparison (§4.2, Improvement-III) is like-for-like.
    """

    num_vectors: int
    dim: int

    def byte_size(self) -> int:
        return self.num_vectors * (self.dim * 4 + BYTES_PER_FIELD)


def message_size_ratio(walk_length: int) -> float:
    """DistGER-vs-HuGE-D message size advantage at a given walk length.

    ``(24 + 8L) / 80`` -- e.g. 8.3× at the routine L = 80 (Example 1).
    """
    full = FullPathMessage(0, walk_length, 0, path=list(range(walk_length)))
    inc = IncrementalMessage(0, walk_length, 0)
    return full.byte_size() / inc.byte_size()
