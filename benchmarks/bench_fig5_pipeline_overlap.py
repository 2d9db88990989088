"""Figure 5 companion: end-to-end speedup of the streaming executor.

``bench_fig5_end_to_end.py`` reproduces the paper's cross-system speedups
through the simulated cost model; this bench measures the **wall-clock**
win of DistGER's headline *system* idea -- overlapping the pipeline
phases instead of running them behind barriers (Fang et al., VLDB 2023
§5) -- as reproduced by ``execution="pipeline"``:

* the MPGP partitioner runs on its own worker while walk rounds sample
  (corpora are placement-independent under the walker RNG protocol);
* walk rounds stream through a bounded queue, so workers sample round
  ``k+1`` while the parent flushes round ``k`` into the flat corpus;
* training consumes the shared token block through the same slice
  descriptors as ``execution="process"``, once the corpus is finished.

Because the two executors are byte-identical (the pipeline parity
suite's contract), the speedup is pure scheduling: the gate asserts
``process / pipeline >= FLOOR`` end to end (1.2 at 4 workers on a
~10^5-node R-MAT stand-in; ``--size smoke`` runs 1.1 at 2 workers on a
2^15-node graph).  Hosts with fewer cores than workers skip
the gate -- overlap cannot buy wall-clock without idle cores to run the
overlapped work on.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from common import bench_size, print_table, run_once
from repro import embed_graph
from repro.graph.generators import rmat

SIZE = bench_size("fig5_pipeline")
SCALE = SIZE["rmat_scale"]
WORKERS = SIZE["workers"]
FLOOR = SIZE["floor"]
MACHINES = 4

_graph_cache = {}


def _bench_graph():
    if "graph" not in _graph_cache:
        _graph_cache["graph"] = rmat(scale=SCALE, edge_factor=8, seed=3)
    return _graph_cache["graph"]


def _embed_once(graph, execution):
    """One full DistGER run (MPGP -> InCoM walks -> DSGL) wall-timed.

    Training is kept light (dim 16, one epoch) so the phase *overlap* --
    not raw training throughput, which ``execution="process"`` already
    parallelises identically in both modes -- dominates the measurement,
    matching what Fig. 5 attributes to the pipelined system design.
    """
    start = time.perf_counter()
    result = embed_graph(graph, method="distger", num_machines=MACHINES,
                         dim=16, epochs=1, seed=5, execution=execution,
                         workers=WORKERS, max_rounds=4, min_rounds=2)
    return time.perf_counter() - start, result


def test_fig5_pipeline_overlap_gate(benchmark):
    """End-to-end gate: pipeline >= FLOOR x phased process execution."""
    cores = os.cpu_count() or 1
    if cores < WORKERS:
        pytest.skip(f"host has {cores} cores; the {FLOOR}x overlap gate "
                    f"needs >= {WORKERS} to be physically reachable")
    graph = _bench_graph()
    process_s, process_result = _embed_once(graph, "process")
    pipeline_s, pipeline_result = run_once(
        benchmark, _embed_once, graph, "pipeline")
    # Cheap parity sanity on top of the dedicated suite: overlap must
    # not cost a single byte.
    np.testing.assert_array_equal(process_result.embeddings,
                                  pipeline_result.embeddings)
    speedup = process_s / pipeline_s
    rows = []
    for name, seconds, result in (("process", process_s, process_result),
                                  ("pipeline", pipeline_s,
                                   pipeline_result)):
        rows.append([name, seconds,
                     result.phase("partition"), result.phase("sampling"),
                     result.phase("training"), process_s / seconds])
    print_table(
        f"Fig. 5 companion: end-to-end wall-clock, |V|={graph.num_nodes}, "
        f"{WORKERS} workers (pipeline phases overlap, so its partition "
        f"column shows only the non-overlapped join wait)",
        ["executor", "seconds", "partition", "sampling", "training",
         "speedup"],
        rows,
    )
    assert speedup >= FLOOR, (
        f"pipeline executor end-to-end speedup {speedup:.2f}x under the "
        f"{FLOOR}x floor at {WORKERS} workers"
    )


def test_fig5_pipeline_overlap_walk_phase_report(benchmark):
    """Walk-phase-only report: flush ∥ sampling overlap on a fixed
    partition (runs on any host; informational, no gate)."""
    from repro.partition.balance import WorkloadBalancePartitioner
    from repro.runtime import Cluster, ExecutionContext
    from repro.walks import DistributedWalkEngine, WalkConfig

    graph = _bench_graph()
    assignment = WorkloadBalancePartitioner().partition(
        graph, MACHINES).assignment
    rows = []
    reference_tokens = None
    for execution in ("process", "pipeline"):
        cluster = Cluster(MACHINES, assignment, seed=1)
        cfg = WalkConfig.distger(max_rounds=2, min_rounds=2,
                                 context=ExecutionContext(execution,
                                                          WORKERS))
        start = time.perf_counter()
        result = DistributedWalkEngine(graph, cluster, cfg).run()
        seconds = time.perf_counter() - start
        if reference_tokens is None:
            reference_tokens = result.corpus.total_tokens
        assert result.corpus.total_tokens == reference_tokens
        rows.append([execution, seconds])
    run_once(benchmark, lambda: None)
    rows[1].append(rows[0][1] / rows[1][1])
    rows[0].append(1.0)
    print_table(
        f"Walk phase only: streamed rounds vs per-round barriers "
        f"(|V|={graph.num_nodes}, {WORKERS} workers)",
        ["executor", "seconds", "speedup"], rows,
    )
