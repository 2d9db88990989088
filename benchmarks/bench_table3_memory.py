"""Tables 3/8: peak per-machine memory of sampling and training.

Paper result: DistGER needs less memory than KnightKing in both phases on
every graph (e.g. LJ sampling 1.95 GB vs 7.65 GB), because the
information-oriented corpus is a fraction of the routine one; KnightKing
runs out of memory on Twitter.

Reproduced with the tracked per-machine resident bytes (graph share +
corpus share + model replica).

The second section gates the flat-corpus IPC refactor (this repo's memory
story rather than the paper's): under ``execution="process"`` a training
sync round ships ``(machine, lo, hi, lr)`` slice descriptors over a
shared-memory token block instead of pickling its walk batches.  Gate:
pickled bytes per sync round at least ``REPRO_BENCH_IPC_FLOOR`` (default
10x) below the 8 bytes per trained token any batch transport must move,
on a ``REPRO_BENCH_IPC_NODES`` (default 10^4) node graph, with the flat
corpus resident footprint no worse than the legacy list-of-arrays layout
it replaced.
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

from common import PAPER, bench_dataset, bench_epochs, print_table, run_once
from repro.embedding import DistributedTrainer, TrainConfig
from repro.graph.generators import powerlaw_cluster
from repro.partition.balance import WorkloadBalancePartitioner
from repro.runtime import Cluster
from repro.systems import DistGER, KnightKing
from repro.walks import DistributedWalkEngine, WalkConfig

DATASETS = ("FL", "YT", "LJ", "OR", "TW")
_mem = {}


@pytest.mark.parametrize("dataset", DATASETS)
@pytest.mark.parametrize("system_cls", (DistGER, KnightKing),
                         ids=lambda c: c.name)
def test_table3_memory(benchmark, system_cls, dataset):
    ds = bench_dataset(dataset)
    system = system_cls(num_machines=4, dim=32, epochs=bench_epochs(), seed=0)
    result = run_once(benchmark, system.embed, ds.graph)
    _mem[(system_cls.name, dataset)] = result.peak_memory_bytes


def test_table3_report(benchmark):
    if not _mem:
        pytest.skip("run the parametrised benches first")
    run_once(benchmark, lambda: None)
    rows = []
    for dataset in DATASETS:
        kk = _mem.get(("KnightKing", dataset))
        dg = _mem.get(("DistGER", dataset))
        paper = PAPER["table3_memory_gb"][dataset]
        rows.append([
            dataset,
            kk / 1e6 if kk else float("nan"),
            dg / 1e6 if dg else float("nan"),
            (kk / dg) if kk and dg else float("nan"),
            (paper["KnightKing"] / paper["DistGER"])
            if paper["KnightKing"] else float("inf"),
        ])
    print_table(
        "Table 3: peak per-machine memory (MB measured; ratio vs paper)",
        ["graph", "KnightKing MB", "DistGER MB", "ratio", "paper ratio"],
        rows,
    )
    for row in rows:
        assert row[2] < row[1], \
            f"DistGER should use less memory than KnightKing on {row[0]}"


# --------------------------------------------------------------------- #
# Flat-corpus IPC + resident-footprint gate
# --------------------------------------------------------------------- #

IPC_NODES = int(os.environ.get("REPRO_BENCH_IPC_NODES", "10000"))
IPC_FLOOR = float(os.environ.get("REPRO_BENCH_IPC_FLOOR", "10.0"))


def test_table3_flat_corpus_ipc_gate(benchmark):
    """Slice descriptors cut per-sync-round pickled bytes >= IPC_FLOOR x.

    The yardstick is ``8 x tokens_processed``: the int64 tokens a batch
    transport would have to move at the very least (pickle framing and
    per-array headers come on top), against the descriptor bytes the
    process trainer records it actually shipped.
    """
    graph = powerlaw_cluster(IPC_NODES, attach=6, triangle_prob=0.3, seed=0)
    assignment = WorkloadBalancePartitioner().partition(graph, 4).assignment
    walk_cluster = Cluster(4, assignment, seed=5)
    walk_result = DistributedWalkEngine(
        graph, walk_cluster,
        WalkConfig.distger(max_rounds=2, min_rounds=2)).run()

    def train_process():
        cluster = Cluster(4, assignment, seed=9)
        cfg = TrainConfig(dim=16, epochs=1, seed=11,
                          execution="process", workers=2)
        return DistributedTrainer(
            walk_result.corpus, cluster, cfg,
            walk_machines=walk_result.walk_machines).train()

    result = run_once(benchmark, train_process)
    rounds = result.extras["ipc_rounds"]
    task_bytes = result.extras["ipc_task_bytes"]
    batch_bytes = 8 * result.tokens_processed
    assert rounds > 0 and task_bytes > 0
    reduction = batch_bytes / task_bytes
    print_table(
        f"Table 3 companion: pickled bytes per training sync round "
        f"({IPC_NODES} nodes, {walk_result.corpus.total_tokens} tokens)",
        ["payload", "bytes/round", "reduction"],
        [
            ["token bytes (lower bound of a batch transport)",
             batch_bytes / rounds, 1.0],
            ["slice descriptors (flat corpus)", task_bytes / rounds,
             reduction],
        ],
    )
    assert reduction >= IPC_FLOOR, (
        f"slice descriptors only cut per-round IPC {reduction:.1f}x "
        f"(< {IPC_FLOOR}x floor)"
    )


def test_table3_flat_corpus_memory_no_worse(benchmark):
    """The flat layout's resident footprint never exceeds the legacy
    list-of-arrays layout: per walk it pays one 8-byte offset where the
    old corpus paid a whole ndarray object (plus its list slot)."""
    graph = powerlaw_cluster(min(IPC_NODES, 5000), attach=6,
                             triangle_prob=0.3, seed=0)
    assignment = WorkloadBalancePartitioner().partition(graph, 4).assignment
    cluster = Cluster(4, assignment, seed=5)
    corpus = run_once(
        benchmark,
        lambda: DistributedWalkEngine(
            graph, cluster,
            WalkConfig.distger(max_rounds=2, min_rounds=2)).run().corpus)
    flat_bytes = corpus.memory_bytes()
    # Legacy layout: one int64 ndarray per walk held in a Python list.
    per_array_overhead = sys.getsizeof(np.empty(0, dtype=np.int64)) + 8
    legacy_bytes = (corpus.total_tokens * 8
                    + corpus.num_walks * per_array_overhead
                    + corpus.occurrences.nbytes)
    print_table(
        "Table 3 companion: corpus resident bytes (flat vs legacy layout)",
        ["layout", "bytes", "bytes/walk overhead"],
        [
            ["list of arrays (legacy)", legacy_bytes, per_array_overhead],
            ["flat tokens+offsets", flat_bytes, 8],
        ],
    )
    assert flat_bytes <= legacy_bytes, (
        f"flat corpus ({flat_bytes} B) must not exceed the legacy layout "
        f"({legacy_bytes} B)"
    )


def test_table3_spilled_corpus_resident_gate(benchmark, tmp_path):
    """Out-of-core companion: a spilled corpus keeps the token block
    file-backed, so its resident share (occurrence counters + bounded
    staging) is a small fraction of the mapped bytes -- the property the
    ``backing="mmap"`` RSS ceiling (bench_ooc_memory_ceiling.py) builds
    on."""
    graph = powerlaw_cluster(min(IPC_NODES, 5000), attach=6,
                             triangle_prob=0.3, seed=0)
    assignment = WorkloadBalancePartitioner().partition(graph, 4).assignment
    cluster = Cluster(4, assignment, seed=5)

    def build_spilled():
        cfg = WalkConfig.distger(max_rounds=2, min_rounds=2,
                                 backing="mmap", spill_dir=str(tmp_path))
        return DistributedWalkEngine(graph, cluster, cfg).run().corpus

    corpus = run_once(benchmark, build_spilled)
    try:
        split = corpus.storage_bytes()
        print_table(
            "Table 3 companion: spilled corpus resident vs mapped bytes",
            ["pool", "bytes"],
            [["resident (counters + staging)", split["resident"]],
             ["mapped (token + offset blocks)", split["mapped"]]],
        )
        assert split["mapped"] >= corpus.total_tokens * 8
        assert split["resident"] < split["mapped"], (
            f"spilled corpus keeps {split['resident']} B resident vs "
            f"{split['mapped']} B mapped -- the spill is not out-of-core"
        )
    finally:
        corpus.close()
