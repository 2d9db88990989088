"""Batched, deterministic top-k similarity scoring (the serving hot path).

Every online query against a trained embedding matrix reduces to "score
one query vector against a catalogue, return the best k" -- the
recommendation workload of the paper's §1 and the similarity-ranking
evaluation protocol shared by the random-walk embedding literature.
:class:`BatchTopKScorer` is that kernel, built for sustained traffic:

* **batched** -- a request carries ``q`` query nodes and is scored with
  one matmul against the catalogue, not ``q`` scans;
* **cached** -- row norms are computed once at construction, never per
  query, and a fixed candidate catalogue is gathered once;
* **deterministic** -- top-k selection breaks score ties by smallest
  node id, so equal-score results are byte-identical run to run and
  across serving processes.  This is the fix for the ``np.argpartition``
  tie nondeterminism that ``top_k_similar`` inherited: argpartition
  picks an *arbitrary* subset when ties straddle the k-boundary.  One
  batched kernel (:func:`_batched_top_k`) selects for the whole request;
  :func:`deterministic_top_k` is the per-row oracle it must equal;
* **well-defined on cold nodes** -- zero-norm embeddings score 0 under
  cosine (never NaN), duplicate candidate ids are deduplicated, a query
  node absent from the catalogue simply is not self-excluded, and
  ``k`` larger than the catalogue pads with ``(-1, -inf)``.

Scoring works on whatever array the store exposes -- an in-process
matrix, a shared-memory segment or a read-only ``.npy`` mmap -- without
copying it.  Float contract: a given *request batch* is scored by one
matmul, so identical batches produce identical bytes wherever they run;
the multi-worker front end (:mod:`repro.serving.engine`) dispatches whole
request batches to single workers to inherit that guarantee.  Selection
compares scores in the matmul's own dtype and widens only the winners to
float64 (an exact, order-preserving cast).
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.utils.validation import check_positive

__all__ = [
    "BatchTopKScorer",
    "TopKResult",
    "deterministic_top_k",
    "finite_row_norms",
    "row_norms",
]

METRICS = ("cosine", "dot")


def row_norms(matrix: np.ndarray) -> np.ndarray:
    """L2 norm of every row, as float64 (exact and dtype-stable)."""
    matrix = np.asarray(matrix)
    return np.sqrt(np.einsum("ij,ij->i", matrix, matrix,
                             dtype=np.float64))


def finite_row_norms(matrix: np.ndarray, what: str) -> np.ndarray:
    """:func:`row_norms` that refuses NaN/inf rows.

    A non-finite score would turn a selection threshold into NaN and the
    response into silent padding, so the boundary raises instead, naming
    the first offending row.  Zero-norm rows are legal.
    """
    norms = row_norms(matrix)
    bad = np.flatnonzero(~np.isfinite(norms))
    if bad.size:
        raise ValueError(
            f"{what} row {int(bad[0])} is not finite (NaN/inf entry, or "
            f"a magnitude whose squared norm overflows)")
    return norms


def deterministic_top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` largest scores, ties broken by smallest index.

    Returns indices ordered best-first by ``(-score, index)``.  Unlike a
    bare ``np.argpartition`` -- which picks an arbitrary subset when
    equal scores straddle the k-boundary -- the selection *and* the
    ordering are pure functions of the score array, which is what lets
    serving parity tests demand byte-equal responses under ties.
    """
    scores = np.asarray(scores)
    n = scores.size
    if k >= n:
        sel = np.arange(n, dtype=np.int64)
        order = np.lexsort((sel, -scores))
        return sel[order]
    # kth largest value; everything strictly above it is in, ties at the
    # boundary are admitted in ascending-index order until k is full.
    kth = -np.partition(-scores, k - 1)[k - 1]
    above = np.flatnonzero(scores > kth)
    ties = np.flatnonzero(scores == kth)
    sel = np.concatenate([above, ties[:k - above.size]])
    order = np.lexsort((sel, -scores[sel]))
    return sel[order].astype(np.int64, copy=False)


class TopKResult(NamedTuple):
    """Batched top-k answer: ``(q, k)`` node ids and scores, best first.

    Rows with fewer than ``k`` admissible candidates are padded with
    id ``-1`` / score ``-inf`` (a fixed, comparable padding so responses
    stay byte-comparable).
    """

    ids: np.ndarray
    scores: np.ndarray

    def as_lists(self) -> List[List[Tuple[int, float]]]:
        """Per-query ``[(node_id, score), ...]`` lists, padding trimmed."""
        out: List[List[Tuple[int, float]]] = []
        for row_ids, row_scores in zip(self.ids, self.scores):
            out.append([(int(i), float(s))
                        for i, s in zip(row_ids, row_scores) if i >= 0])
        return out


#: Catalogue rows sampled for the per-query threshold: small enough that
#: the sampled block stays cache-resident for batches up to 64, large
#: enough to leave only ~``k * c / 4096`` survivors per query.
_SAMPLE_ROWS = 4096


def _batched_top_k(block: np.ndarray, ids: np.ndarray, k: int, *,
                   sample: int = _SAMPLE_ROWS) -> TopKResult:
    """Exact top-``k`` of every column of a ``(c, q)`` score block.

    ``block[i, j]`` scores catalogue entry ``ids[i]`` (ascending) for
    query ``j``; barred entries already hold ``-inf``.  A strided sample
    of rows gives each query a lower bound ``tau`` (the sample's k-th
    largest): the sample alone holds k entries ``>= tau``, so the true
    top-k -- boundary ties included -- lies in ``{score >= tau}``.  Those
    survivors are ordered by one ``lexsort`` on ``(query, -score, id)``,
    i.e. exactly :func:`deterministic_top_k` per column, and widened to
    float64 (exact).  A query whose survivors do not thin out (heavy
    ties, nearly everything barred) takes the per-row oracle instead,
    so the worst case costs what the per-query loop did.
    """
    c, q = block.shape
    out_ids = np.full((q, k), -1, dtype=np.int64)
    out_scores = np.full((q, k), -np.inf, dtype=np.float64)
    probe = block[::max(1, c // sample)]
    m = probe.shape[0]
    tau = np.partition(probe, m - k, axis=0)[m - k] if m >= k else -np.inf
    mask = block >= tau
    limit = max(256, c // 16)
    if np.count_nonzero(mask) > limit * q:
        heavy = np.flatnonzero(np.count_nonzero(mask, axis=0) > limit)
        mask[:, heavy] = False
        for col in heavy:
            scores = block[:, col].astype(np.float64)
            top = deterministic_top_k(scores, k)
            top = top[scores[top] > -np.inf]
            out_ids[col, :top.size] = ids[top]
            out_scores[col, :top.size] = scores[top]
    flat = np.flatnonzero(mask)
    scores = block.ravel()[flat].astype(np.float64)
    admissible = scores > -np.inf
    pos, col = np.divmod(flat[admissible], q)
    scores = scores[admissible]
    order = np.lexsort((pos, -scores, col))
    col = col[order]
    rank = np.arange(col.size) - np.searchsorted(col, col)
    won = rank < k
    order, col, rank = order[won], col[won], rank[won]
    out_ids[col, rank] = ids[pos[order]]
    out_scores[col, rank] = scores[order]
    return TopKResult(out_ids, out_scores)


def _checked_candidates(candidates: np.ndarray,
                        num_nodes: int) -> np.ndarray:
    """Sorted, deduplicated, bounds-checked candidate ids."""
    candidates = np.unique(np.asarray(candidates, dtype=np.int64))
    if candidates.size and (candidates[0] < 0
                            or candidates[-1] >= num_nodes):
        raise ValueError(
            f"candidate ids must lie in [0, {num_nodes}); got range "
            f"[{candidates[0]}, {candidates[-1]}]")
    return candidates


class BatchTopKScorer:
    """Vectorized top-k scorer over a (possibly shared) embedding matrix.

    Parameters
    ----------
    embeddings:
        The ``(n, d)`` matrix.  Never copied; a read-only mmap or a
        shared-memory view works as-is.
    candidates:
        Optional fixed catalogue (e.g. the item side of a bipartite
        graph).  Deduplicated, sorted and gathered **once**; per-call
        ``candidates`` still override it.  ``None`` means all nodes.
    norms:
        Precomputed :func:`row_norms` of ``embeddings`` (e.g. shipped by
        the store so workers skip the O(n d) pass); computed here when
        omitted.
    groups:
        Optional length-``n`` int array mapping each embedding row to a
        *group* id (e.g. ``PersonaResult.base_of``, mapping personas to
        base nodes).  Enables :meth:`top_k_bases`: group-level queries
        answered as the max over member-pair scores -- Splitter's
        best-persona-pair lookup.
    """

    def __init__(self, embeddings: np.ndarray,
                 candidates: Optional[np.ndarray] = None,
                 norms: Optional[np.ndarray] = None,
                 groups: Optional[np.ndarray] = None) -> None:
        embeddings = np.asarray(embeddings)
        if embeddings.ndim != 2:
            raise ValueError(
                f"embeddings must be 2-D, got shape {embeddings.shape}")
        self.embeddings = embeddings
        self.num_nodes = int(embeddings.shape[0])
        self.norms = (np.asarray(norms, dtype=np.float64)
                      if norms is not None else row_norms(embeddings))
        if self.norms.shape != (self.num_nodes,):
            raise ValueError("norms must have one entry per node")
        # Zero-norm (cold/untrained) rows divide by 1 instead of 0: their
        # dot products are exactly 0, so cosine is defined as 0, not NaN.
        self._safe_norms = np.where(self.norms > 0.0, self.norms, 1.0)
        self.groups: Optional[np.ndarray] = None
        self.num_groups = 0
        self._group_rows_order: Optional[np.ndarray] = None
        self._group_rows_bounds: Optional[np.ndarray] = None
        if groups is not None:
            groups = np.asarray(groups, dtype=np.int64)
            if groups.shape != (self.num_nodes,):
                raise ValueError(
                    f"groups must map every row; expected shape "
                    f"({self.num_nodes},), got {groups.shape}")
            if groups.size and groups.min() < 0:
                raise ValueError("group ids must be non-negative")
            self.groups = groups
            self.num_groups = int(groups.max()) + 1 if groups.size else 0
            # Group -> member rows: stable row order within each group so
            # the gathered query blocks are deterministic.
            self._group_rows_order = np.argsort(groups, kind="stable")
            self._group_rows_bounds = np.searchsorted(
                groups[self._group_rows_order],
                np.arange(self.num_groups + 1, dtype=np.int64))
        self._default_cand: Optional[np.ndarray] = None
        self._default_gather: Optional[dict] = None
        if candidates is not None:
            self._default_cand = _checked_candidates(candidates,
                                                     self.num_nodes)
            self._default_gather = self._gather(self._default_cand)

    # ------------------------------------------------------------- #
    # Candidate gathering
    # ------------------------------------------------------------- #

    def _gather(self, cand: np.ndarray) -> dict:
        """Materialise the catalogue's matrices (full-matrix = views)."""
        full = cand.size == self.num_nodes
        return {
            "ids": cand,
            "matrix": self.embeddings if full else self.embeddings[cand],
            "safe_norms": (self._safe_norms if full
                           else self._safe_norms[cand]),
            # Group-sorted column structure for top_k_bases (lazy).
            "group_cols": None,
        }

    def _group_columns(self, gathered: dict):
        """Candidate columns bucketed by group, for reduceat reductions.

        Returns ``(col_order, seg_starts, seg_gids)``: scoring columns
        permuted group-ascending, each group's segment start, and the
        (sorted, unique) group ids present in the catalogue.  Computed
        once per gather and cached -- the grouped hot path then costs one
        column permutation plus one ``maximum.reduceat`` per request.
        """
        if gathered["group_cols"] is None:
            cand = gathered["ids"]
            gids = self.groups[cand]
            col_order = np.lexsort((cand, gids))
            sorted_gids = gids[col_order]
            seg_gids = np.unique(sorted_gids)
            seg_starts = np.searchsorted(sorted_gids, seg_gids)
            gathered["group_cols"] = (col_order, seg_starts, seg_gids)
        return gathered["group_cols"]

    def _resolve_candidates(self, candidates) -> dict:
        if candidates is None:
            if self._default_gather is not None:
                return self._default_gather
            self._default_cand = np.arange(self.num_nodes,
                                           dtype=np.int64)
            self._default_gather = self._gather(self._default_cand)
            return self._default_gather
        return self._gather(_checked_candidates(candidates,
                                                self.num_nodes))

    # ------------------------------------------------------------- #
    # Scoring
    # ------------------------------------------------------------- #

    def top_k(self, nodes: np.ndarray, k: int = 10,
              metric: str = "cosine",
              candidates: Optional[np.ndarray] = None,
              exclude_self: bool = True,
              exclude: Optional[Sequence[np.ndarray]] = None
              ) -> TopKResult:
        """Top-``k`` catalogue nodes for each query node, best first.

        ``exclude`` optionally bars per-query node-id arrays (e.g. each
        user's training interactions) from that query's results;
        ``exclude_self`` bars the query node itself when it appears in
        the catalogue.
        """
        check_positive("k", k)
        if metric not in METRICS:
            raise ValueError(f"unknown metric {metric!r}; use "
                             f"{' or '.join(repr(m) for m in METRICS)}")
        nodes = np.atleast_1d(np.asarray(nodes, dtype=np.int64))
        if nodes.size and (nodes.min() < 0
                           or nodes.max() >= self.num_nodes):
            raise ValueError(
                f"query nodes must lie in [0, {self.num_nodes})")
        if exclude is not None and len(exclude) != nodes.size:
            raise ValueError("exclude must hold one id array per query")
        gathered = self._resolve_candidates(candidates)
        scores = self._score(self.embeddings[nodes], self.norms[nodes],
                             metric, gathered)
        return self._select(scores, nodes if exclude_self else None, k,
                            gathered["ids"], exclude)

    def top_k_vectors(self, vectors: np.ndarray, k: int = 10,
                      metric: str = "cosine",
                      candidates: Optional[np.ndarray] = None,
                      exclude: Optional[Sequence[np.ndarray]] = None
                      ) -> TopKResult:
        """Top-``k`` for raw query *vectors* (analogy-style queries).

        Vectors arrive from outside the store, so a NaN/inf entry raises
        here instead of poisoning the selection threshold.
        """
        check_positive("k", k)
        if metric not in METRICS:
            raise ValueError(f"unknown metric {metric!r}; use "
                             f"{' or '.join(repr(m) for m in METRICS)}")
        vectors = np.atleast_2d(np.asarray(vectors))
        if exclude is not None and len(exclude) != vectors.shape[0]:
            raise ValueError("exclude must hold one id array per query")
        gathered = self._resolve_candidates(candidates)
        scores = self._score(vectors, finite_row_norms(vectors, "query"),
                             metric, gathered)
        return self._select(scores, None, k, gathered["ids"], exclude)

    def top_k_bases(self, bases: np.ndarray, k: int = 10,
                    metric: str = "cosine",
                    candidates: Optional[np.ndarray] = None,
                    exclude_self: bool = True) -> TopKResult:
        """Top-``k`` *groups* for each query group (persona-aware lookup).

        Requires ``groups`` at construction.  A query group (e.g. a base
        node whose personas are the member rows) scores a candidate
        group as the **max over member-pair scores** -- Splitter's
        best-persona-pair semantics -- and the returned ids are group
        ids, deterministic with smallest-group-id tie-breaks and the
        usual ``(-1, -inf)`` padding.  ``candidates`` (member-row ids,
        e.g. a persona catalogue) restricts the candidate side; a group
        with no candidate rows cannot be returned.  The whole batch is
        still one matmul: all query members score at once, then two
        ``maximum`` reductions collapse member rows/columns to groups.
        """
        check_positive("k", k)
        if self.groups is None:
            raise ValueError(
                "top_k_bases needs the groups row->group mapping at "
                "construction")
        if metric not in METRICS:
            raise ValueError(f"unknown metric {metric!r}; use "
                             f"{' or '.join(repr(m) for m in METRICS)}")
        bases = np.atleast_1d(np.asarray(bases, dtype=np.int64))
        if bases.size and (bases.min() < 0
                           or bases.max() >= self.num_groups):
            raise ValueError(
                f"query groups must lie in [0, {self.num_groups})")
        gathered = self._resolve_candidates(candidates)
        col_order, seg_starts, seg_gids = self._group_columns(gathered)

        # Query side: every member row of every queried group, scored in
        # one batch; q_bounds marks each group's row block.
        lo = self._group_rows_bounds[bases]
        hi = self._group_rows_bounds[bases + 1]
        q_counts = hi - lo
        q_rows = np.concatenate(
            [self._group_rows_order[a:b] for a, b in zip(lo, hi)]) \
            if bases.size else np.empty(0, dtype=np.int64)
        q_bounds = np.zeros(bases.size + 1, dtype=np.int64)
        np.cumsum(q_counts, out=q_bounds[1:])

        if seg_gids.size == 0 or q_rows.size == 0:
            return _batched_top_k(np.empty((0, bases.size)), seg_gids[:0],
                                  k)
        member_scores = self._score(self.embeddings[q_rows],
                                    self.norms[q_rows], metric, gathered)
        # Catalogue rows to groups, then member columns to query groups
        # (max-max; a max is exact, so the order of the two is free).
        grouped_rows = np.maximum.reduceat(
            member_scores[col_order], seg_starts, axis=0)
        nonempty = np.flatnonzero(q_counts > 0)
        scores = np.full((seg_gids.size, bases.size), -np.inf,
                         dtype=grouped_rows.dtype)
        # Start offsets of the nonempty query groups are strictly
        # increasing (empty groups contribute no columns), so reduceat
        # segments cover exactly each group's member block.
        scores[:, nonempty] = np.maximum.reduceat(
            grouped_rows, q_bounds[:-1][nonempty], axis=1)
        return self._select(scores, bases if exclude_self else None, k,
                            seg_gids, None)

    def _score(self, queries: np.ndarray, query_norms: np.ndarray,
               metric: str, gathered: dict) -> np.ndarray:
        """``(c, q)`` score block, the layout the one matmul per request
        batch produces.  ``dot`` keeps the product's own float dtype;
        ``cosine`` divides in float64."""
        product = gathered["matrix"] @ queries.T
        if metric == "dot":
            return np.asarray(
                product, dtype=np.result_type(product, np.float32))
        scores = np.asarray(product, dtype=np.float64)
        scores /= gathered["safe_norms"][:, None]
        scores /= np.where(query_norms > 0.0, query_norms, 1.0)[None, :]
        return scores

    @staticmethod
    def _select(scores: np.ndarray, own_ids: Optional[np.ndarray], k: int,
                ids: np.ndarray,
                exclude: Optional[Sequence[np.ndarray]]) -> TopKResult:
        """Bar each query's own id and its ``exclude`` ids from the
        ``(c, q)`` block (ids it does not hold are ignored), then take
        the batched top-k."""
        if own_ids is not None and ids.size:
            pos = np.searchsorted(ids, own_ids)
            hit = (pos < ids.size) & \
                (ids[np.minimum(pos, ids.size - 1)] == own_ids)
            scores[pos[hit], np.flatnonzero(hit)] = -np.inf
        if exclude is not None and ids.size:
            for col, barred in enumerate(exclude):
                barred = np.asarray(barred, dtype=np.int64)
                if not barred.size:
                    continue
                pos = np.searchsorted(ids, barred)
                hit = (pos < ids.size) & \
                    (ids[np.minimum(pos, ids.size - 1)] == barred)
                scores[pos[hit], col] = -np.inf
        return _batched_top_k(scores, ids, k)
