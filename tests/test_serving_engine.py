"""Query-engine front-end tests: parity, lifecycle, accounting.

The serving determinism contract (see :mod:`repro.serving.engine`):
multi-worker responses are **byte-identical** to in-process responses --
ids and scores, tied scores included -- because a request batch is the
unit of dispatch and is scored by one matmul wherever it runs.  The
lifecycle contract: graceful shutdown drains the pool and releases every
shared segment; per-request failures surface from ``result()`` without
tearing the pool down; a closed engine refuses further queries.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.serving import (
    EmbeddingStore,
    QueryEngine,
    zipf_query_trace,
)

SHM_DIR = "/dev/shm"


def shm_segments() -> set:
    return set(os.listdir(SHM_DIR)) if os.path.isdir(SHM_DIR) else set()


def tied_matrix(n=40, d=6, seed=0) -> np.ndarray:
    """Integer-valued float32 matrix: exact dots, ties everywhere."""
    rng = np.random.default_rng(seed)
    return rng.integers(-2, 3, size=(n, d)).astype(np.float32)


def assert_byte_equal(a, b):
    assert a.ids.tobytes() == b.ids.tobytes()
    assert a.scores.tobytes() == b.scores.tobytes()


# --------------------------------------------------------------------- #
# Parity
# --------------------------------------------------------------------- #


class TestParity:
    def test_multiworker_matches_inprocess_bytes_under_ties(self):
        matrix = tied_matrix()
        batches = zipf_query_trace(200, 40, batch_size=16, seed=3)
        with EmbeddingStore.from_array(matrix, mode="shared") as store:
            with QueryEngine(store, workers=2, metric="dot") as pool:
                pooled = [pool.submit(b, k=7) for b in batches]
                pooled = [p.result() for p in pooled]
            with QueryEngine(store, workers=0, metric="dot") as solo:
                serial = [solo.query(b, k=7) for b in batches]
        for got, want in zip(pooled, serial):
            assert_byte_equal(got, want)

    def test_parity_over_mmap_store(self, tmp_path):
        matrix = tied_matrix(seed=5)
        path = str(tmp_path / "emb.npy")
        np.save(path, matrix)
        nodes = np.arange(10, dtype=np.int64)
        with EmbeddingStore.open(path) as store:
            assert store.mode == "mmap"
            with QueryEngine(store, workers=1) as pool:
                pooled = pool.query(nodes, k=5)
            with QueryEngine(store, workers=0) as solo:
                serial = solo.query(nodes, k=5)
        assert_byte_equal(pooled, serial)

    def test_parity_with_candidates_and_options(self):
        matrix = tied_matrix(seed=7)
        cand = np.arange(5, 35)
        exclude = [np.array([6, 7])] + [np.empty(0, dtype=np.int64)] * 3
        nodes = np.array([0, 6, 20, 39])
        with EmbeddingStore.from_array(matrix, mode="shared") as store:
            with QueryEngine(store, workers=1, metric="dot",
                             candidates=cand) as pool:
                pooled = pool.query(nodes, k=6, exclude=exclude)
            with QueryEngine(store, workers=0, metric="dot",
                             candidates=cand) as solo:
                serial = solo.query(nodes, k=6, exclude=exclude)
        assert_byte_equal(pooled, serial)
        # Excluded and out-of-catalogue ids never appear.
        assert not np.isin(pooled.ids[0], [6, 7]).any()
        valid = pooled.ids[pooled.ids >= 0]
        assert np.isin(valid, cand).all()

    def test_bare_matrix_and_per_call_overrides(self):
        matrix = tied_matrix(seed=11)
        with QueryEngine(matrix, workers=0) as engine:
            cosine = engine.query([3], k=4)
            dot = engine.query([3], k=4, metric="dot")
        with QueryEngine(matrix, workers=1) as engine:
            pooled_cos = engine.query([3], k=4)
            pooled_dot = engine.query([3], k=4, metric="dot")
        assert_byte_equal(cosine, pooled_cos)
        assert_byte_equal(dot, pooled_dot)


# --------------------------------------------------------------------- #
# Lifecycle
# --------------------------------------------------------------------- #


class TestLifecycle:
    def test_close_releases_every_segment(self):
        before = shm_segments()
        store = EmbeddingStore.from_array(tied_matrix(), mode="shared")
        engine = QueryEngine(store, workers=1,
                             candidates=np.arange(20), close_store=True)
        engine.query([0], k=3)
        assert shm_segments() - before  # segments live while serving
        engine.close()
        assert shm_segments() - before == set()

    def test_closed_engine_refuses_queries(self):
        engine = QueryEngine(tied_matrix(), workers=0)
        engine.close()
        with pytest.raises(RuntimeError, match="shut down"):
            engine.query([0], k=1)
        engine.close()  # idempotent

    def test_failed_request_does_not_kill_the_pool(self):
        with QueryEngine(tied_matrix(), workers=1) as engine:
            with pytest.raises(ValueError, match="query nodes"):
                engine.query([10_000], k=3)
            # The pool survives and keeps answering.
            result = engine.query([1], k=3)
            assert (result.ids >= 0).all()

    def test_constructor_failure_leaks_nothing(self):
        before = shm_segments()
        with pytest.raises(ValueError, match="workers"):
            QueryEngine(tied_matrix(), workers=-1)
        with pytest.raises(ValueError, match="metric"):
            QueryEngine(tied_matrix(), workers=0, metric="nope")
        with pytest.raises(ValueError, match="candidate ids"):
            QueryEngine(tied_matrix(), workers=0,
                        candidates=np.array([10_000]))
        assert shm_segments() - before == set()

    def test_memory_store_rejected_for_workers(self):
        store = EmbeddingStore.from_array(tied_matrix(), mode="memory")
        with pytest.raises(ValueError, match="no cross-process handle"):
            QueryEngine(store, workers=1)
        store.close()


# --------------------------------------------------------------------- #
# Latency accounting
# --------------------------------------------------------------------- #


class TestLatencyAccounting:
    def test_inprocess_summary_shape(self):
        with QueryEngine(tied_matrix(), workers=0) as engine:
            for _ in range(5):
                engine.query([1, 2], k=3)
            summary = engine.latency_summary()
        assert set(summary) == {"inprocess", "overall", "request"}
        for tag in ("overall", "request"):
            stats = summary[tag]
            assert stats["count"] == 5.0
            assert set(stats) == {"count", "mean", "p50", "p99"}
            assert 0.0 <= stats["p50"] <= stats["p99"]
        # submit -> completion wraps the scorer call.
        assert summary["request"]["mean"] >= summary["overall"]["mean"]

    def test_worker_summary_tags_pids_and_sums_to_overall(self):
        with QueryEngine(tied_matrix(), workers=1) as engine:
            handles = [engine.submit([i], k=2) for i in range(6)]
            for handle in handles:
                handle.result()
            summary = engine.latency_summary()
        workers = [tag for tag in summary if tag.startswith("worker-")]
        assert workers  # at least one pid-tagged entry
        assert summary["overall"]["count"] == 6.0
        assert sum(summary[w]["count"] for w in workers) == 6.0

    def test_request_latency_ignores_late_collection(self):
        import time

        with QueryEngine(tied_matrix(), workers=1) as engine:
            engine.query([0], k=2)  # pool start-up off the clock
            engine.request_latencies.clear()
            engine.latencies.clear()
            handles = [engine.submit([i], k=2) for i in range(6)]
            time.sleep(0.5)  # collect late: must not count as latency
            for handle in handles:
                handle.result()
        # Read after close: the pool's collector thread has run every
        # done-callback by then.
        summary = engine.latency_summary()
        assert summary["request"]["count"] == 6.0
        assert summary["request"]["p99"] < 0.5
        # Queueing, pickling and transfer sit on top of scoring time.
        assert summary["request"]["mean"] >= summary["overall"]["mean"]

    def test_failed_request_reports_no_latency(self):
        with QueryEngine(tied_matrix(), workers=1) as engine:
            with pytest.raises(ValueError):
                engine.submit([10_000], k=2).result()
        assert "request" not in engine.latency_summary()

    def test_empty_engine_has_empty_summary(self):
        with QueryEngine(tied_matrix(), workers=0) as engine:
            assert engine.latency_summary() == {}


# --------------------------------------------------------------------- #
# API entry point
# --------------------------------------------------------------------- #


class TestServeEmbeddingsApi:
    def test_array_text_and_npy_sources_agree(self, tmp_path):
        from repro.api import serve_embeddings
        from repro.graph.io import save_embeddings

        matrix = tied_matrix(seed=13)
        npy = str(tmp_path / "m.npy")
        txt = str(tmp_path / "m.emb")
        np.save(npy, matrix)
        save_embeddings(txt, matrix)
        nodes = np.array([0, 5, 9])
        answers = []
        for source in (matrix, npy, txt):
            with serve_embeddings(source, metric="dot") as engine:
                answers.append(engine.query(nodes, k=4))
        assert_byte_equal(answers[0], answers[1])
        # Text round-trips through decimal formatting; ids still agree
        # because integer-valued float32 survives the text round trip.
        assert_byte_equal(answers[0], answers[2])

    def test_existing_store_is_not_closed(self):
        from repro.api import serve_embeddings

        store = EmbeddingStore.from_array(tied_matrix(), mode="shared")
        with serve_embeddings(store, workers=1) as engine:
            engine.query([0], k=2)
        assert store.embeddings is not None  # caller still owns it
        store.close()
