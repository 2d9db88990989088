"""Figure 6 companion: real multi-core scaling of the process executor.

``bench_fig6_scalability_machines.py`` reproduces the paper's machine-count
curves through the *simulated* cost model; this bench measures the
**wall-clock** scaling the process runtime delivers on one host.  The walk
phase -- the pipeline's dominant cost and the paper's headline scaling
axis -- runs the same lock-step rounds under ``execution="serial"`` and
``execution="process"``, on a ~10^5-node R-MAT graph by default.

Because the two executors are byte-identical (the parity suite's
contract), the speedup is pure scheduling: the gate asserts
``serial / process >= FLOOR`` (2.0 at 4 workers; ``--size smoke`` runs
1.5 at 2 workers on a 2^15-node graph).  Hosts with fewer
cores than workers skip the gate -- a 1-core box cannot exhibit
multi-process speedup by construction.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from common import bench_size, print_table, run_once
from repro.embedding import DistributedTrainer, TrainConfig
from repro.graph.generators import rmat
from repro.partition.balance import WorkloadBalancePartitioner
from repro.runtime import Cluster, ExecutionContext
from repro.walks import DistributedWalkEngine, WalkConfig

SIZE = bench_size("fig6_executor")
SCALE = SIZE["rmat_scale"]
WORKERS = SIZE["workers"]
FLOOR = SIZE["floor"]
MACHINES = 4

_graph_cache = {}


def _bench_graph():
    if "graph" not in _graph_cache:
        graph = rmat(scale=SCALE, edge_factor=8, seed=3)
        assignment = WorkloadBalancePartitioner().partition(
            graph, MACHINES).assignment
        _graph_cache["graph"] = (graph, assignment)
    return _graph_cache["graph"]


def _walk_once(graph, assignment, execution, workers=0):
    cluster = Cluster(MACHINES, assignment, seed=1)
    cfg = WalkConfig.distger(max_rounds=2, min_rounds=2,
                             context=ExecutionContext(execution, workers))
    start = time.perf_counter()
    result = DistributedWalkEngine(graph, cluster, cfg).run()
    return time.perf_counter() - start, result


def test_fig6_executor_walk_scaling_gate(benchmark):
    """Walk-phase wall-clock gate: process >= FLOOR x serial."""
    cores = os.cpu_count() or 1
    if cores < WORKERS:
        pytest.skip(f"host has {cores} cores; the {FLOOR}x gate needs "
                    f">= {WORKERS} to be physically reachable")
    graph, assignment = _bench_graph()
    serial_s, serial_result = _walk_once(graph, assignment, "serial")
    process_s, process_result = run_once(
        benchmark, _walk_once, graph, assignment, "process", WORKERS)
    # Cheap parity sanity on top of the dedicated suite.
    assert serial_result.corpus.total_tokens == \
        process_result.corpus.total_tokens
    speedup = serial_s / process_s
    print_table(
        f"Fig. 6 companion: walk wall-clock, |V|={graph.num_nodes}, "
        f"{WORKERS} workers",
        ["executor", "seconds", "speedup"],
        [["serial", serial_s, 1.0],
         ["process", process_s, speedup]],
    )
    assert speedup >= FLOOR, (
        f"process executor speedup {speedup:.2f}x under the "
        f"{FLOOR}x floor at {WORKERS} workers"
    )


def test_fig6_executor_worker_sweep_report(benchmark):
    """Workers sweep (report only): walks and DSGL training wall-clock."""
    graph, assignment = _bench_graph()
    serial_s, serial_result = _walk_once(graph, assignment, "serial")
    rows = [["serial", "-", serial_s, 1.0]]
    sweep = [w for w in (1, 2, 4) if w <= (os.cpu_count() or 1)]
    for workers in sweep:
        process_s, result = _walk_once(graph, assignment, "process",
                                       workers)
        assert result.corpus.total_tokens == serial_result.corpus.total_tokens
        rows.append(["process", workers, process_s, serial_s / process_s])
    run_once(benchmark, lambda: None)
    print_table(
        f"Walk wall-clock vs workers (|V|={graph.num_nodes})",
        ["executor", "workers", "seconds", "speedup"], rows,
    )

    def train_once(execution, workers=0):
        cluster = Cluster(MACHINES, assignment, seed=2)
        cfg = TrainConfig(dim=32, epochs=1, seed=4,
                          context=ExecutionContext(execution, workers))
        trainer = DistributedTrainer(serial_result.corpus, cluster, cfg,
                                     walk_machines=serial_result.walk_machines)
        return trainer.train().wall_seconds

    train_serial = train_once("serial")
    train_rows = [["serial", "-", train_serial, 1.0]]
    for workers in sweep:
        seconds = train_once("process", workers)
        train_rows.append(["process", workers, seconds,
                           train_serial / seconds])
    print_table(
        "DSGL training wall-clock vs workers (same corpus)",
        ["executor", "workers", "seconds", "speedup"], train_rows,
    )
