"""Delta overlay over an immutable :class:`CSRGraph`.

The CSR layout is the right structure for walking and the wrong one for
mutating: inserting one arc into the middle of ``indices`` moves every
byte after it.  ``DeltaCSR`` therefore keeps the base CSR untouched and
absorbs an edge stream into per-edge delta entries — a weight for a live
(inserted or re-weighted) edge, a tombstone for a deleted one — with
last-op-wins semantics, O(1) per operation.  Queries merge the base row
with the deltas on the fly; :meth:`DeltaCSR.compact` materialises a
plain ``CSRGraph`` that is **byte-identical** to
``CSRGraph.from_edges(merged_edges, ...)`` on the merged logical edge
list, while only touching the rows the stream touched (untouched spans
of ``indices``/``weights`` are copied in bulk).

`EdgeStream` is the input format: parallel ``src``/``dst``/``ops``
(+1 insert, -1 delete)/``weights`` arrays, a ``+ u v [w]`` / ``- u v``
text form for the CLI, and :func:`random_churn` to synthesise the
paper-style 1% churn step the dynamic bench measures.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, Optional, Tuple, Union

import numpy as np

from repro.graph.csr import CSRGraph

__all__ = ["EdgeStream", "DeltaCSR", "random_churn"]

_MISSING = object()


def _valid_weight(w):
    """Whether edge weight(s) ``w`` are finite and >= 0 (NaN is not)."""
    return (w >= 0) & np.isfinite(w)


@dataclass(frozen=True)
class EdgeStream:
    """An ordered stream of edge insertions and deletions.

    ``ops[i] == +1`` inserts ``(src[i], dst[i])`` with ``weights[i]``;
    ``ops[i] == -1`` deletes it (the weight is ignored).  Order matters:
    later operations on the same edge win.
    """

    src: np.ndarray
    dst: np.ndarray
    ops: np.ndarray
    weights: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        object.__setattr__(self, "src", np.asarray(self.src, dtype=np.int64))
        object.__setattr__(self, "dst", np.asarray(self.dst, dtype=np.int64))
        object.__setattr__(self, "ops", np.asarray(self.ops, dtype=np.int64))
        w = (np.ones(self.src.size, dtype=np.float64) if self.weights is None
             else np.asarray(self.weights, dtype=np.float64))
        object.__setattr__(self, "weights", w)
        if not (self.src.shape == self.dst.shape == self.ops.shape
                == self.weights.shape):
            raise ValueError("src/dst/ops/weights must be parallel 1-D arrays")
        if self.src.size and not np.all(np.isin(self.ops, (-1, 1))):
            raise ValueError("ops must be +1 (insert) or -1 (delete)")
        if self.src.size and min(int(self.src.min()), int(self.dst.min())) < 0:
            raise ValueError("node ids must be non-negative")
        # The CSR rule (finite and >= 0), checked where the entry is still
        # known: an unweighted base would drop a bad weight silently, a
        # weighted one would refuse it only at compact(), by arc index.
        bad = np.flatnonzero((self.ops == 1) & ~_valid_weight(self.weights))
        if bad.size:
            i = int(bad[0])
            raise ValueError(
                f"insert weights must be finite and >= 0: op {i} "
                f"(+ {int(self.src[i])} {int(self.dst[i])}) has weight "
                f"{float(self.weights[i])!r} ({bad.size} bad inserts)")

    def __len__(self) -> int:
        return int(self.src.size)

    def __iter__(self) -> Iterator[Tuple[int, int, int, float]]:
        for i in range(len(self)):
            yield (int(self.ops[i]), int(self.src[i]), int(self.dst[i]),
                   float(self.weights[i]))

    @property
    def num_inserts(self) -> int:
        return int(np.count_nonzero(self.ops == 1))

    @property
    def num_deletes(self) -> int:
        return int(np.count_nonzero(self.ops == -1))

    @classmethod
    def from_edits(
        cls,
        inserts: Iterable[Tuple[int, int]] = (),
        deletes: Iterable[Tuple[int, int]] = (),
        insert_weights: Optional[Iterable[float]] = None,
    ) -> "EdgeStream":
        """Build a stream that applies ``deletes`` then ``inserts``."""
        del_arr = np.asarray(list(deletes), dtype=np.int64).reshape(-1, 2)
        ins_arr = np.asarray(list(inserts), dtype=np.int64).reshape(-1, 2)
        src = np.concatenate([del_arr[:, 0], ins_arr[:, 0]])
        dst = np.concatenate([del_arr[:, 1], ins_arr[:, 1]])
        ops = np.concatenate([
            np.full(len(del_arr), -1, dtype=np.int64),
            np.ones(len(ins_arr), dtype=np.int64),
        ])
        w = np.ones(src.size, dtype=np.float64)
        if insert_weights is not None:
            w[len(del_arr):] = np.asarray(list(insert_weights),
                                          dtype=np.float64)
        return cls(src, dst, ops, w)

    @classmethod
    def from_text(cls, source: Union[str, io.TextIOBase]) -> "EdgeStream":
        """Parse the text form: ``+ u v [w]`` inserts, ``- u v`` deletes.

        ``source`` is a path or an open text file; blank lines and
        ``#``-comments are skipped.
        """
        if isinstance(source, str):
            with open(source, "r", encoding="utf-8") as fh:
                return cls.from_text(fh)
        src, dst, ops, weights = [], [], [], []
        for lineno, raw in enumerate(source, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if parts[0] not in ("+", "-") or len(parts) not in (3, 4):
                raise ValueError(
                    f"line {lineno}: expected '+ u v [w]' or '- u v', "
                    f"got {raw.strip()!r}")
            if parts[0] == "-" and len(parts) == 4:
                raise ValueError(f"line {lineno}: deletions take no weight")
            ops.append(1 if parts[0] == "+" else -1)
            src.append(int(parts[1]))
            dst.append(int(parts[2]))
            weights.append(float(parts[3]) if len(parts) == 4 else 1.0)
            if not _valid_weight(weights[-1]):
                raise ValueError(
                    f"line {lineno}: insert weight must be finite and "
                    f">= 0, got {parts[3]!r}")
        return cls(np.asarray(src, dtype=np.int64),
                   np.asarray(dst, dtype=np.int64),
                   np.asarray(ops, dtype=np.int64),
                   np.asarray(weights, dtype=np.float64))

    def to_text(self) -> str:
        """Inverse of :meth:`from_text` (weights printed only on inserts)."""
        lines = []
        for op, u, v, w in self:
            if op == 1 and w != 1.0:
                lines.append(f"+ {u} {v} {w!r}")
            else:
                lines.append(f"{'+' if op == 1 else '-'} {u} {v}")
        return "\n".join(lines) + ("\n" if lines else "")


def random_churn(
    graph: CSRGraph,
    fraction: float,
    seed: int = 0,
    insert_fraction: float = 0.5,
) -> EdgeStream:
    """Synthesise a churn step touching ``fraction`` of the edge set.

    ``round(fraction * |E| * (1 - insert_fraction))`` existing edges are
    deleted and ``round(fraction * |E| * insert_fraction)`` new edges
    (uniform non-edges between existing nodes) are inserted — the
    evolving-graph step the dynamic-update bench replays.  Deterministic
    in ``seed``.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    rng = np.random.default_rng(seed)
    total = int(round(fraction * graph.num_edges))
    n_ins = int(round(total * insert_fraction))
    n_del = total - n_ins
    edges = graph.unique_edges()
    n_del = min(n_del, len(edges))
    del_idx = rng.choice(len(edges), size=n_del, replace=False) if n_del else \
        np.empty(0, dtype=np.int64)
    deletes = edges[np.sort(del_idx)]

    n = graph.num_nodes
    inserts = []
    seen = set(map(tuple, edges))
    guard = 0
    while len(inserts) < n_ins and guard < 50 * max(n_ins, 1):
        u, v = (int(x) for x in rng.integers(0, n, size=2))
        guard += 1
        if u == v:
            continue
        key = (u, v) if (graph.directed or u < v) else (v, u)
        if key in seen:
            continue
        seen.add(key)
        inserts.append(key)
    return EdgeStream.from_edits(inserts=inserts, deletes=deletes)


class DeltaCSR:
    """Mutable edge-delta overlay on an immutable base :class:`CSRGraph`.

    Applying a stream costs O(churn) dict updates; queries merge the
    base row with the node's deltas; :meth:`compact` rebuilds only the
    touched rows.  For undirected bases one logical edit covers both
    stored arcs (keys are normalised to ``u < v``).  Self-loop inserts
    are topological no-ops — ``from_edges`` drops them — but still grow
    the node universe, matching the constructor's pre-drop id handling.
    """

    def __init__(self, base: CSRGraph):
        self.base = base
        self._num_nodes = base.num_nodes
        # logical edge key -> weight (live) or None (tombstone)
        self._edits: Dict[Tuple[int, int], Optional[float]] = {}
        self.self_loops_ignored = 0

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #

    def _key(self, u: int, v: int) -> Tuple[int, int]:
        if self.base.directed or u < v:
            return (u, v)
        return (v, u)

    def insert(self, u: int, v: int, weight: float = 1.0) -> None:
        """Insert (or re-weight) edge ``(u, v)``; grows the node universe."""
        u, v = int(u), int(v)
        if u < 0 or v < 0:
            raise ValueError("node ids must be non-negative")
        self._num_nodes = max(self._num_nodes, u + 1, v + 1)
        if u == v:
            self.self_loops_ignored += 1
            return
        self._edits[self._key(u, v)] = float(weight)

    def delete(self, u: int, v: int) -> None:
        """Delete edge ``(u, v)``; deleting an absent edge is a no-op."""
        u, v = int(u), int(v)
        if u == v or u >= self._num_nodes or v >= self._num_nodes:
            return
        key = self._key(u, v)
        if self._edits.get(key, _MISSING) is None:
            return  # already tombstoned
        if key in self._edits or self._base_has_arc(*key):
            self._edits[key] = None
        # deleting an edge that never existed leaves no trace

    def apply(self, stream: EdgeStream) -> "DeltaCSR":
        """Apply a whole stream in order (last op per edge wins)."""
        for op, u, v, w in stream:
            if op == 1:
                self.insert(u, v, w)
            else:
                self.delete(u, v)
        return self

    # ------------------------------------------------------------------ #
    # Queries (merged view)
    # ------------------------------------------------------------------ #

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    @property
    def num_edits(self) -> int:
        return len(self._edits)

    def _base_has_arc(self, u: int, v: int) -> bool:
        return u < self.base.num_nodes and self.base.has_edge(u, v)

    def _arc_edits(self, node: int) -> Dict[int, Optional[float]]:
        """Deltas that land in ``node``'s adjacency row, dst -> edit."""
        out: Dict[int, Optional[float]] = {}
        for (a, b), w in self._edits.items():
            if a == node:
                out[b] = w
            elif not self.base.directed and b == node:
                out[a] = w
        return out

    def neighbors(self, node: int) -> np.ndarray:
        """Sorted merged adjacency of ``node`` (copy, not a view)."""
        base_row = (self.base.neighbors(node) if node < self.base.num_nodes
                    else np.empty(0, dtype=np.int64))
        edits = self._arc_edits(node)
        if not edits:
            return base_row.copy()
        live = {int(d) for d in base_row}
        for dst, w in edits.items():
            if w is None:
                live.discard(dst)
            else:
                live.add(dst)
        return np.asarray(sorted(live), dtype=np.int64)

    def degree(self, node: int) -> int:
        return int(self.neighbors(node).size)

    def has_edge(self, u: int, v: int) -> bool:
        if u == v:
            return False
        key = self._key(int(u), int(v))
        if key in self._edits:
            return self._edits[key] is not None
        return self._base_has_arc(*key)

    # ------------------------------------------------------------------ #
    # Materialisation
    # ------------------------------------------------------------------ #

    def effective_edits(self) -> Dict[Tuple[int, int], Optional[float]]:
        """Edits that actually change the base: real inserts, re-weights,
        and deletions of edges that exist (no-op entries filtered out)."""
        out: Dict[Tuple[int, int], Optional[float]] = {}
        weighted = self.base.is_weighted
        for (u, v), w in self._edits.items():
            present = self._base_has_arc(u, v)
            if w is None:
                if present:
                    out[(u, v)] = None
            elif not present:
                out[(u, v)] = w
            elif weighted and self.base.edge_weight(u, v) != w:
                out[(u, v)] = w
            # unweighted base: re-inserting an existing edge is a no-op
        return out

    def changed_arcs(self) -> np.ndarray:
        """All stored arcs whose presence or weight changes, ``(m, 2)``.

        Undirected edits contribute both directions — this is the dirty
        set the walk-invalidation audit scans for.
        """
        edits = self.effective_edits()
        if not edits:
            return np.empty((0, 2), dtype=np.int64)
        arcs = np.asarray(list(edits), dtype=np.int64)
        if not self.base.directed:
            arcs = np.concatenate([arcs, arcs[:, ::-1]])
        return arcs

    def merged_edges(self) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """The merged logical edge list ``(edges, weights_or_None)``.

        ``CSRGraph.from_edges(edges, num_nodes=self.num_nodes,
        weights=weights, directed=...)`` on this list defines the
        reference result :meth:`compact` must reproduce byte for byte.
        """
        weighted = self.base.is_weighted
        arcs = self.base.edge_array()
        if self.base.directed:
            base_edges = arcs
            base_w = self.base.weights.copy() if weighted else None
        else:
            half = arcs[:, 0] < arcs[:, 1]
            base_edges = arcs[half]
            base_w = self.base.weights[half] if weighted else None
        keep = np.ones(len(base_edges), dtype=bool)
        replace_w = {}
        edits = self.effective_edits()
        if edits:
            keys = {tuple(map(int, e)): i for i, e in enumerate(base_edges)}
            extra_e, extra_w = [], []
            for key, w in edits.items():
                i = keys.get(key)
                if w is None:
                    keep[i] = False
                elif i is not None:
                    replace_w[i] = w
                else:
                    extra_e.append(key)
                    extra_w.append(w)
        else:
            extra_e, extra_w = [], []
        if weighted:
            for i, w in replace_w.items():
                base_w[i] = w
        edges = np.concatenate([
            base_edges[keep],
            np.asarray(extra_e, dtype=np.int64).reshape(-1, 2),
        ])
        if not weighted:
            return edges, None
        weights = np.concatenate([
            base_w[keep], np.asarray(extra_w, dtype=np.float64)])
        return edges, weights

    def compact(self) -> CSRGraph:
        """Materialise the merged graph as a plain :class:`CSRGraph`.

        Byte-identical to ``from_edges`` on :meth:`merged_edges`, but
        only the touched rows are rebuilt — the untouched spans of
        ``indices``/``weights`` are copied slice-wise from the base.
        """
        base = self.base
        n = self._num_nodes
        edits = self.effective_edits()
        if not edits and n == base.num_nodes:
            return base

        # Bucket the logical edits into the adjacency rows they land in.
        per_row: Dict[int, Dict[int, Optional[float]]] = {}
        for (u, v), w in edits.items():
            per_row.setdefault(u, {})[v] = w
            if not base.directed:
                per_row.setdefault(v, {})[u] = w

        weighted = base.is_weighted
        new_rows: Dict[int, Tuple[np.ndarray, Optional[np.ndarray]]] = {}
        counts = np.zeros(n, dtype=np.int64)
        counts[:base.num_nodes] = base.degrees
        for node, row_edits in per_row.items():
            if node < base.num_nodes:
                base_row = base.neighbors(node)
                merged = (dict(zip(base_row.tolist(),
                                   base.neighbor_weights(node).tolist()))
                          if weighted else dict.fromkeys(base_row.tolist(),
                                                         1.0))
            else:
                merged = {}
            for dst, w in row_edits.items():
                if w is None:
                    merged.pop(dst, None)
                else:
                    merged[dst] = w
            dsts = np.asarray(sorted(merged), dtype=np.int64)
            row_w = (np.asarray([merged[int(d)] for d in dsts],
                                dtype=np.float64) if weighted else None)
            new_rows[node] = (dsts, row_w)
            counts[node] = dsts.size

        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        indices = np.empty(int(indptr[-1]), dtype=np.int64)
        weights = np.empty(int(indptr[-1]), dtype=np.float64) if weighted \
            else None

        # Copy untouched spans in bulk, splice the rebuilt rows in place.
        touched = sorted(new_rows)
        span_start = 0  # first node of the next untouched span
        for node in touched + [n]:
            if span_start < node:  # bulk-copy [span_start, node)
                lo, hi = span_start, min(node, base.num_nodes)
                if lo < hi:
                    src = slice(base.indptr[lo], base.indptr[hi])
                    dst_slice = slice(int(indptr[lo]), int(indptr[hi]))
                    indices[dst_slice] = base.indices[src]
                    if weighted:
                        weights[dst_slice] = base.weights[src]
            if node == n:
                break
            dsts, row_w = new_rows[node]
            dst_slice = slice(int(indptr[node]), int(indptr[node + 1]))
            indices[dst_slice] = dsts
            if weighted:
                weights[dst_slice] = row_w
            span_start = node + 1

        return CSRGraph(indptr, indices, weights, directed=base.directed)
