"""Embedding-space similarity queries (word2vec's `most_similar`).

Every downstream task in the paper reduces to similarity in the embedding
space: link prediction scores pairs by dot product, recommendation ranks
a catalogue, classification separates regions.  :func:`top_k_similar` is
the interactive counterpart -- a nearest-neighbour query over a
node-embedding matrix (the CLI's ``similar`` command), useful for
eyeballing whether an embedding "learned the graph" before running a full
evaluation harness.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.utils.validation import check_positive


def top_k_similar(
    embeddings: np.ndarray,
    node: int,
    k: int = 10,
    metric: str = "cosine",
    candidates: Optional[np.ndarray] = None,
) -> list:
    """``k`` most similar nodes to ``node`` (excluding itself).

    ``metric`` is ``"cosine"`` or ``"dot"``; ``candidates`` restricts the
    search (e.g. to the item side of a bipartite graph).  Returns
    ``[(node_id, score), ...]`` best first.

    This is the single-query convenience wrapper around the serving
    layer's :class:`~repro.serving.scorer.BatchTopKScorer`, and inherits
    its guarantees: ties broken by smallest node id (a bare
    ``np.argpartition`` picks an arbitrary subset when equal scores
    straddle the k-boundary, so equal-score results used to differ run
    to run), duplicate candidate ids deduplicated, zero-norm (cold)
    embeddings scoring a well-defined 0 under cosine, and ``k`` larger
    than the candidate set returning every candidate once.  Sustained
    query traffic should build one scorer (or a
    :class:`~repro.serving.engine.QueryEngine`) and reuse it -- this
    helper recomputes the norm cache on every call.
    """
    from repro.serving.scorer import BatchTopKScorer

    check_positive("k", k)
    scorer = BatchTopKScorer(embeddings)
    result = scorer.top_k(np.asarray([node], dtype=np.int64), k=k,
                          metric=metric, candidates=candidates,
                          exclude_self=True)
    return result.as_lists()[0]
