"""Multi-worker query front end (the online half of the reproduction).

The paper motivates billion-edge embedding with online recommendation
(§1); this module serves sustained query traffic from a trained matrix.
A :class:`QueryEngine` wraps an :class:`~repro.serving.store.
EmbeddingStore` and a :class:`~repro.serving.scorer.BatchTopKScorer`
behind one call -- ``engine.query(nodes, k)`` -- in two execution modes:

* ``workers=0`` -- in-process: the scorer runs on the caller's thread.
* ``workers>=1`` -- a :class:`~repro.runtime.executor.ProcessExecutor`
  pool whose initializer attaches the store **once** per worker
  (zero-copy, shared pages); each request batch then ships only its
  query ids and returns only its ``(k ids, k scores)`` rows.

Request batches are the unit of dispatch: a batch is scored wholly by
one worker with the same matmul the in-process path runs, so multi-worker
responses are **byte-identical** to in-process responses -- including
under tied scores, thanks to the scorer's id tie-break.  ``submit``
returns a pending handle for pipelined load (the QPS bench keeps
``2 x workers`` requests in flight); per-request failures surface from
``result()`` without tearing the pool down.

Latency accounting has two clocks.  Every worker stamps its pid and
scoring time on the response; the engine stamps submit and completion
(completion from a future done-callback, so a caller that collects late
does not inflate it).  :meth:`QueryEngine.latency_summary` aggregates
count / mean / p50 / p99 of the scoring time per worker and overall, and
of submit->completion -- queueing, pickling and result transfer included
-- under ``"request"``.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.runtime.executor import ProcessExecutor
from repro.serving.scorer import METRICS, BatchTopKScorer, TopKResult
from repro.serving.store import EmbeddingStore
from repro.utils.sharedmem import SharedGroup, attach_shared_array

__all__ = ["PendingQuery", "QueryEngine"]

#: Worker-side serving state installed by the pool initializer.
_SERVE_STATE: Dict[str, object] = {}


def _serving_worker_init(store_handle, candidates_handle) -> None:
    store = EmbeddingStore.attach(store_handle)
    candidates = (None if candidates_handle is None
                  else attach_shared_array(candidates_handle))
    _SERVE_STATE["store"] = store
    _SERVE_STATE["candidates"] = candidates
    _SERVE_STATE["generation"] = store.generation
    _SERVE_STATE["scorer"] = BatchTopKScorer(
        store.embeddings, candidates=candidates, norms=store.norms)


def _serving_query_task(nodes, k, metric, candidates, exclude_self,
                        exclude):
    # The scorer's construction-time caches (safe norms, gathered
    # catalogues) are only valid for the generation of
    # the matrix they were built from; a store update in the owner bumps
    # the shared generation slot, and the worker rebuilds before scoring
    # rather than mixing new vectors with stale norms.
    store: EmbeddingStore = _SERVE_STATE["store"]
    if store.generation != _SERVE_STATE["generation"]:
        _SERVE_STATE["generation"] = store.generation
        _SERVE_STATE["scorer"] = BatchTopKScorer(
            store.embeddings, candidates=_SERVE_STATE["candidates"],
            norms=store.norms)
    scorer: BatchTopKScorer = _SERVE_STATE["scorer"]
    start = time.perf_counter()
    result = scorer.top_k(nodes, k=k, metric=metric,
                          candidates=candidates,
                          exclude_self=exclude_self, exclude=exclude)
    elapsed = time.perf_counter() - start
    return result.ids, result.scores, os.getpid(), elapsed


class PendingQuery:
    """Handle of an in-flight request; ``result()`` blocks for the answer."""

    def __init__(self, engine: "QueryEngine", future=None,
                 ready: Optional[TopKResult] = None) -> None:
        self._engine = engine
        self._future = future
        self._ready = ready

    def result(self) -> TopKResult:
        if self._ready is not None:
            return self._ready
        ids, scores, pid, elapsed = self._future.result()
        self._engine._record(f"worker-{pid}", elapsed)
        self._ready = TopKResult(ids, scores)
        self._future = None
        return self._ready


class QueryEngine:
    """Batched top-k query serving over a shared embedding store.

    Parameters
    ----------
    store:
        An :class:`EmbeddingStore`, or a bare ``(n, d)`` matrix (wrapped
        into a store automatically -- ``mode="shared"`` when workers are
        requested, ``"memory"`` otherwise).
    workers:
        0 serves in-process; ``>= 1`` starts that many query worker
        processes attached to the store.
    metric:
        Default similarity metric (``"cosine"`` or ``"dot"``); per-call
        override available.
    candidates:
        Engine-wide catalogue restriction (e.g. the item side of a
        bipartite graph); shipped to workers through shared memory once.
    """

    def __init__(self, store, workers: int = 0, metric: str = "cosine",
                 candidates: Optional[np.ndarray] = None,
                 close_store: bool = False) -> None:
        if metric not in METRICS:
            raise ValueError(f"unknown metric {metric!r}; use "
                             f"{' or '.join(repr(m) for m in METRICS)}")
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        if not isinstance(store, EmbeddingStore):
            store = EmbeddingStore.from_array(
                np.asarray(store),
                mode="shared" if workers else "memory")
            close_store = True
        self.store = store
        self.workers = workers
        self.metric = metric
        self._close_store = close_store
        self._closed = False
        self.latencies: Dict[str, List[float]] = {}
        self.request_latencies: List[float] = []
        self._group: Optional[SharedGroup] = None
        self._pool: Optional[ProcessExecutor] = None
        self._scorer: Optional[BatchTopKScorer] = None
        self._candidates = candidates
        self._scorer_generation = store.generation
        try:
            if workers == 0:
                self._scorer = BatchTopKScorer(
                    store.embeddings, candidates=candidates,
                    norms=store.norms)
            else:
                candidates_handle = None
                if candidates is not None:
                    self._group = SharedGroup()
                    candidates_handle = self._group.share(
                        np.asarray(candidates, dtype=np.int64))
                self._pool = ProcessExecutor(
                    workers, initializer=_serving_worker_init,
                    initargs=(store.handle, candidates_handle))
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------- #
    # Queries
    # ------------------------------------------------------------- #

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("query engine already shut down")

    def submit(self, nodes: np.ndarray, k: int = 10,
               metric: Optional[str] = None,
               candidates: Optional[np.ndarray] = None,
               exclude_self: bool = True,
               exclude: Optional[Sequence[np.ndarray]] = None
               ) -> PendingQuery:
        """Dispatch one request batch; returns a :class:`PendingQuery`.

        In-process engines answer immediately; multi-worker engines ship
        the whole batch to one worker, keeping request pipelining (and
        byte parity with in-process scoring) intact.
        """
        self._check_open()
        sent = time.perf_counter()
        metric = metric if metric is not None else self.metric
        nodes = np.asarray(nodes, dtype=np.int64)
        if self._pool is None:
            if self.store.generation != self._scorer_generation:
                # The store was updated under us (dynamic re-embedding);
                # the scorer's norm/catalogue caches belong
                # to the old matrix.  Rebuild before scoring.
                self._scorer_generation = self.store.generation
                self._scorer = BatchTopKScorer(
                    self.store.embeddings, candidates=self._candidates,
                    norms=self.store.norms)
            start = time.perf_counter()
            result = self._scorer.top_k(nodes, k=k, metric=metric,
                                        candidates=candidates,
                                        exclude_self=exclude_self,
                                        exclude=exclude)
            done = time.perf_counter()
            self._record("inprocess", done - start)
            self.request_latencies.append(done - sent)
            return PendingQuery(self, ready=result)
        future = self._pool.submit(
            _serving_query_task, nodes, k, metric, candidates,
            exclude_self, exclude)
        future.add_done_callback(
            lambda done: self._request_done(done, sent))
        return PendingQuery(self, future=future)

    def query(self, nodes: np.ndarray, k: int = 10,
              metric: Optional[str] = None,
              candidates: Optional[np.ndarray] = None,
              exclude_self: bool = True,
              exclude: Optional[Sequence[np.ndarray]] = None
              ) -> TopKResult:
        """Synchronous :meth:`submit` -- blocks for the batch's answer."""
        return self.submit(nodes, k=k, metric=metric,
                           candidates=candidates,
                           exclude_self=exclude_self,
                           exclude=exclude).result()

    # ------------------------------------------------------------- #
    # Latency accounting
    # ------------------------------------------------------------- #

    def _record(self, worker: str, elapsed: float) -> None:
        self.latencies.setdefault(worker, []).append(elapsed)

    def _request_done(self, future, sent: float) -> None:
        """Done-callback of a pool request (runs on the pool's collector
        thread the moment the response lands).  Failed and cancelled
        requests have no latency to report."""
        done = time.perf_counter()
        if not future.cancelled() and future.exception() is None:
            self.request_latencies.append(done - sent)

    def latency_summary(self) -> Dict[str, Dict[str, float]]:
        """Scoring-time and request-latency stats (seconds).

        Keys are worker tags (``inprocess`` / ``worker-<pid>``) and
        ``"overall"`` -- time inside ``scorer.top_k`` -- plus
        ``"request"``: submit to completion, which adds queueing,
        pickling and result transfer.  Values hold ``count``, ``mean``,
        ``p50``, ``p99``.
        """
        def stats(samples: List[float]) -> Dict[str, float]:
            arr = np.asarray(samples, dtype=np.float64)
            return {
                "count": float(arr.size),
                "mean": float(arr.mean()),
                "p50": float(np.percentile(arr, 50)),
                "p99": float(np.percentile(arr, 99)),
            }

        summary = {worker: stats(samples)
                   for worker, samples in sorted(self.latencies.items())}
        if summary:
            summary["overall"] = stats(
                [s for samples in self.latencies.values() for s in samples])
        requests = list(self.request_latencies)
        if requests:
            summary["request"] = stats(requests)
        return summary

    # ------------------------------------------------------------- #
    # Lifecycle
    # ------------------------------------------------------------- #

    def close(self) -> None:
        """Graceful shutdown: drain the pool, release shared segments."""
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        if self._group is not None:
            self._group.close()
            self._group = None
        if self._close_store and self.store is not None:
            self.store.close()
        self._scorer = None

    def __enter__(self) -> "QueryEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
