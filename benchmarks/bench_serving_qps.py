"""Serving-layer gate: sustained QPS and p99 latency under a skewed trace.

The paper motivates billion-edge embedding with online recommendation at
Alibaba scale (§1); this bench closes the loop by replaying a simulated
"million-user" query trace through the serving layer
(:mod:`repro.serving`) and gating the numbers an online deployment
cares about:

* **sustained QPS** -- total queries answered / wall seconds with the
  multi-worker :class:`~repro.serving.engine.QueryEngine` keeping
  ``2 x workers`` request batches in flight;
* **p99 scoring latency** -- from the engine's per-worker accounting;
  the table also prints the ``request`` row (submit -> completion:
  queueing, pickling and result transfer included), which at
  ``2 x workers`` batches in flight sits near twice the scoring time;
* **byte parity** -- a prefix of the trace is answered both in-process
  and by the worker pool; ids *and* scores must match to the byte
  (request batches are the unit of dispatch, so no GEMM reassociation
  can creep in -- the serving determinism contract).

The defaults are a gate for the host we run on (2 cores): 2 workers,
and floors set from what that host measures with headroom -- 3 100-3 300
q/s and a 48-82 ms scoring p99 with BLAS threads unpinned (two workers
times two BLAS threads oversubscribe two cores), 5 700 q/s and 35-43 ms
with ``OPENBLAS_NUM_THREADS=1``, the deployment shape of a worker pool.
The QPS/p99 gates still skip on hosts with fewer cores than workers
(they are throughput claims about parallel hardware); the parity gate
always runs.

``--size`` sets the catalogue size, query count and the two gates
(``SIZES[...]["serving"]``): 100 000 nodes, 50 000 queries, 1 500 q/s
and p99 <= 250 ms at ``full``; 20 000 nodes, 5 000 queries, 6 000 q/s
and 200 ms at ``smoke``.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from common import bench_size, print_table, run_once
from repro.serving import EmbeddingStore, QueryEngine, zipf_query_trace

SIZE = bench_size("serving")
NODES = SIZE["nodes"]
QUERIES = SIZE["queries"]
FLOOR = SIZE["floor"]
P99_MS = SIZE["p99_ms"]
DIM = 64
BATCH = 64
WORKERS = 2
K = 10

_cache = {}


def _bench_matrix() -> np.ndarray:
    """Integer-valued float32 stand-in for a trained embedding matrix.

    Integer entries make dot products exactly representable, so the
    parity assertion compares true byte-equal scores, ties included --
    the same trick the serving test suite uses.
    """
    if "matrix" not in _cache:
        rng = np.random.default_rng(11)
        _cache["matrix"] = rng.integers(
            -8, 9, size=(NODES, DIM)).astype(np.float32)
    return _cache["matrix"]


def _replay(engine: QueryEngine, batches) -> float:
    """Replay ``batches`` with pipelined submits; returns wall seconds."""
    depth = max(1, 2 * max(engine.workers, 1))
    pending = []
    start = time.perf_counter()
    for batch in batches:
        pending.append(engine.submit(batch, k=K))
        while len(pending) >= depth:
            pending.pop(0).result()
    for handle in pending:
        handle.result()
    return time.perf_counter() - start


def test_serving_qps_gate(benchmark):
    """Sustained QPS >= FLOOR and p99 <= P99_MS at WORKERS workers."""
    cores = os.cpu_count() or 1
    if cores < WORKERS:
        pytest.skip(f"host has {cores} cores; the {FLOOR:.0f} q/s gate "
                    f"needs >= {WORKERS} to be physically reachable")
    matrix = _bench_matrix()
    batches = zipf_query_trace(QUERIES, NODES, batch_size=BATCH, seed=7)
    with EmbeddingStore.from_array(matrix, mode="shared") as store:
        with QueryEngine(store, workers=WORKERS, metric="dot") as engine:
            # Warm the pool (imports, first-touch of shared pages) off
            # the clock, as a real deployment would.
            engine.query(batches[0], k=K)
            wall = run_once(benchmark, _replay, engine, batches)
            summary = engine.latency_summary()
    qps = QUERIES / wall
    p99_ms = summary["overall"]["p99"] * 1e3
    rows = [[tag, int(stats["count"]), stats["mean"] * 1e3,
             stats["p50"] * 1e3, stats["p99"] * 1e3]
            for tag, stats in summary.items()]
    print_table(
        f"Serving QPS: {QUERIES} Zipf queries over {NODES}x{DIM}, "
        f"batch {BATCH}, {WORKERS} workers -> {qps:,.0f} q/s",
        ["worker", "batches", "mean ms", "p50 ms", "p99 ms"],
        rows,
    )
    assert qps >= FLOOR, (
        f"sustained {qps:,.0f} q/s under the {FLOOR:,.0f} q/s floor "
        f"at {WORKERS} workers")
    assert p99_ms <= P99_MS, (
        f"p99 scoring latency {p99_ms:.1f}ms over the {P99_MS:.0f}ms "
        f"ceiling")


def test_serving_multiworker_parity_gate(benchmark):
    """Worker-pool responses match in-process bytes (always runs).

    Uses a trace prefix so the check stays cheap; ids and scores are
    compared as raw bytes, which the id tie-break makes meaningful even
    on an integer-valued matrix full of tied dot products.
    """
    matrix = _bench_matrix()
    prefix = zipf_query_trace(min(QUERIES, 2048), NODES,
                              batch_size=BATCH, seed=7)
    with EmbeddingStore.from_array(matrix, mode="shared") as store:
        with QueryEngine(store, workers=min(WORKERS, 2),
                         metric="dot") as pool_engine:
            pooled = [pool_engine.submit(b, k=K) for b in prefix]
            pooled = [p.result() for p in pooled]
        with QueryEngine(store, workers=0, metric="dot") as solo_engine:
            solo = [solo_engine.query(b, k=K) for b in prefix]
    run_once(benchmark, lambda: None)
    for got, want in zip(pooled, solo):
        assert got.ids.tobytes() == want.ids.tobytes()
        assert got.scores.tobytes() == want.scores.tobytes()
    print(f"\nparity: {len(prefix)} batches byte-identical across "
          f"in-process and worker-pool serving")
