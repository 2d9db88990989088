"""Embedding serving layer: from batch artifact to query engine.

The offline pipeline (partition -> sample -> train) produces an
``(n, d)`` matrix; this package serves it under sustained traffic --
the online recommendation workload the paper opens with (§1):

* :mod:`repro.serving.store`  -- :class:`EmbeddingStore`: the matrix in
  shared memory or a file-backed mmap, opened once, viewed zero-copy by
  every query worker.
* :mod:`repro.serving.scorer` -- :class:`BatchTopKScorer`: batched
  dot/cosine top-k with cached norms, candidate catalogues, one
  batched exact selection kernel, and deterministic id tie-breaks.
* :mod:`repro.serving.engine` -- :class:`QueryEngine`: the in-process /
  multi-worker front end with request pipelining, scoring-time and
  submit->completion latency accounting, and graceful shutdown.
* :mod:`repro.serving.trace`  -- :func:`zipf_query_trace`: the skewed
  synthetic request trace the QPS benchmark replays.

Quickstart::

    from repro.serving import EmbeddingStore, QueryEngine

    store = EmbeddingStore.from_array(result.embeddings)   # shared memory
    with QueryEngine(store, workers=4) as engine:
        response = engine.query([42, 7], k=10)             # (2, 10) ids
"""

from repro.serving.engine import PendingQuery, QueryEngine
from repro.serving.scorer import (
    BatchTopKScorer,
    TopKResult,
    deterministic_top_k,
    row_norms,
)
from repro.serving.store import EmbeddingStore, StoreHandle
from repro.serving.trace import zipf_query_trace

__all__ = [
    "BatchTopKScorer",
    "EmbeddingStore",
    "PendingQuery",
    "QueryEngine",
    "StoreHandle",
    "TopKResult",
    "deterministic_top_k",
    "row_norms",
    "zipf_query_trace",
]
