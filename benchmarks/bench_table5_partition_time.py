"""Table 5(a): partitioning time of PBG (chunk), METIS (DistDGL) and MPGP.

Paper result: MPGP partitions 25.1x faster than the competitors on
average (e.g. LJ: 36.42s vs 458.52s (PBG) / 425.19s (METIS)).

Known deviations at laptop scale:

* real PBG's partition cost includes building its on-disk bucket layout;
  our chunk partitioner is only the assignment, so the PBG column here is
  near-zero;
* the paper's MPGP-beats-METIS wall-clock gap does not reproduce in pure
  Python: MPGP's per-node streaming loop pays interpreter constants while
  the METIS-like multilevel phases are NumPy-vectorised, and the
  asymptotic advantage of single-pass streaming only bites at the paper's
  10^6-10^9-edge scale.  The bench therefore reports the measured numbers
  and asserts only that MPGP stays within a small constant factor and that
  every scheme completes -- the partition-*quality* claims that motivate
  MPGP are asserted in bench_fig10_partition_effect.py instead.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from common import PAPER, bench_dataset, bench_size, print_table, run_once
from repro.graph import powerlaw_cluster
from repro.partition import (
    ChunkPartitioner,
    MetisLikePartitioner,
    MPGPPartitioner,
)

from oracles.partition import GallopingMPGPPartitioner

SIZE = bench_size("table5")
SCALE = SIZE["scale"]
MPGP_NODES = SIZE["mpgp_nodes"]
MPGP_FLOOR = SIZE["mpgp_floor"]

DATASETS = ("FL", "YT", "LJ", "OR", "TW")
PARTITIONERS = {
    "PBG": ChunkPartitioner,
    "METIS": MetisLikePartitioner,
    "MPGP": MPGPPartitioner,
}
_times = {}


def test_table5a_mpgp_vectorized_backend_speedup(benchmark):
    """Table vs galloping MPGP scoring at 10^4 nodes (the partition gate).

    The partitioner precomputes the per-arc common-neighbour table (the
    pass shared with ``HuGEKernel.arc_acceptance_table``) instead of
    galloping every placed neighbour on demand like the oracle in
    ``tests/oracles/partition.py``; the two place every node identically,
    so the assignments are asserted byte-equal and the timing difference
    is pure execution strategy.  The graph uses
    attach=8 (average degree ~16, the LJ-like density regime MPGP
    targets).  ``--size smoke`` scales the gate down for CI (2000 nodes
    / 2x there).
    """
    nodes, floor = MPGP_NODES, MPGP_FLOOR
    graph = powerlaw_cluster(nodes, attach=8, triangle_prob=0.3, seed=11)
    seconds, assignments = {}, {}
    partitioners = {"loop": GallopingMPGPPartitioner,
                    "vectorized": MPGPPartitioner}
    for backend, partitioner_cls in partitioners.items():
        start = time.perf_counter()
        result = partitioner_cls().partition(graph, 8)
        seconds[backend] = time.perf_counter() - start
        assignments[backend] = result.assignment
    run_once(benchmark, lambda: None)
    speedup = seconds["loop"] / seconds["vectorized"]
    print_table(
        f"Table 5(a) companion: MPGP scoring backends at |V|={nodes} "
        f"(acceptance floor: {floor}x)",
        ["backend", "seconds", "speedup vs loop"],
        [["loop", seconds["loop"], 1.0],
         ["vectorized", seconds["vectorized"], speedup]],
    )
    np.testing.assert_array_equal(assignments["loop"],
                                  assignments["vectorized"])
    assert speedup >= floor, \
        f"vectorized MPGP only {speedup:.2f}x faster than the loop reference"


@pytest.mark.parametrize("dataset", DATASETS)
@pytest.mark.parametrize("scheme", sorted(PARTITIONERS))
def test_table5a_partition_time(benchmark, scheme, dataset):
    ds = bench_dataset(dataset, SCALE)
    partitioner = PARTITIONERS[scheme]()
    result = run_once(benchmark, partitioner.partition, ds.graph, 4)
    _times[(scheme, dataset)] = result.seconds


def test_table5a_report(benchmark):
    if not _times:
        pytest.skip("run the parametrised benches first")
    run_once(benchmark, lambda: None)
    rows = []
    for dataset in DATASETS:
        paper = PAPER["table5a_partition_seconds"][dataset]
        rows.append([
            dataset,
            _times.get(("PBG", dataset), float("nan")),
            _times.get(("METIS", dataset), float("nan")),
            _times.get(("MPGP", dataset), float("nan")),
            f"{paper['PBG']}/{paper['METIS']}/{paper['MPGP']}",
        ])
    print_table(
        "Table 5(a): partitioning seconds (measured | paper PBG/METIS/MPGP)",
        ["graph", "PBG(chunk)", "METIS-like", "MPGP", "paper"], rows,
    )
    # Laptop-scale sanity (see module docstring): every scheme completes
    # and MPGP stays within a small constant of the multilevel scheme.
    for dataset in DATASETS:
        assert _times[("MPGP", dataset)] < \
            max(0.05, _times[("METIS", dataset)]) * 25, (
                f"MPGP unexpectedly slow on {dataset}"
            )
