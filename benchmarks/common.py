"""Shared infrastructure for the benchmark harness.

Every benchmark module reproduces one table or figure of the paper
(README's "Benchmarks" table maps module -> figure).  Conventions:

* ``--size {full,smoke}`` (pytest option, default ``full``) picks the
  row of :data:`SIZES` every bench reads its sizes and gate floors from:
  ``full`` is a local run, ``smoke`` the scaled-down CI steps.
* ``scale`` multiplies the dataset stand-in sizes and ``epochs`` sets
  training epochs for the efficiency benches; effectiveness benches
  choose their own.
* Each bench prints the same rows/series the paper reports, labelled with
  the paper's numbers where available, so the console output *is* the
  paper-vs-measured comparison.
* ``benchmark.pedantic(fn, rounds=1, iterations=1)`` is used because one
  end-to-end system run is seconds-long; pytest-benchmark still records
  the timing.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

from repro.graph import load
from repro.graph.datasets import Dataset

#: Every size-dependent bench parameter, per ``--size``.  A bench reads
#: ``bench_size(name)``: the shared ``default`` entries overlaid with its
#: own.  ``rmat_scale`` is an R-MAT exponent (2**scale nodes), ``floor``
#: a speedup or q/s floor, ``ratio`` an RSS ceiling.
SIZES: Dict[str, Dict[str, Dict[str, float]]] = {
    "full": {
        "default": {"scale": 0.5, "epochs": 2},
        "dynamic": {"floor": 5.0},
        "fig5_pipeline": {"rmat_scale": 17, "workers": 4, "floor": 1.2},
        "fig6_executor": {"rmat_scale": 17, "workers": 4, "floor": 2.0},
        "fig10": {"backend_nodes": 10_000, "train_nodes": 10_000,
                  "train_floor": 3.0},
        "ooc": {"rmat_scale": 13, "ratio": 0.5},
        "persona": {"trials": 3, "epochs": 3},
        "serving": {"nodes": 100_000, "queries": 50_000, "floor": 1500.0,
                    "p99_ms": 250.0},
        "table3": {"ipc_nodes": 10_000},
        "table5": {"mpgp_nodes": 10_000, "mpgp_floor": 3.0},
        "table9": {},
    },
    "smoke": {
        "default": {"scale": 0.5, "epochs": 2},
        "dynamic": {"floor": 2.0},
        "fig5_pipeline": {"rmat_scale": 15, "workers": 2, "floor": 1.1},
        "fig6_executor": {"rmat_scale": 15, "workers": 2, "floor": 1.5},
        "fig10": {"scale": 0.1, "backend_nodes": 2000, "train_nodes": 2000,
                  "train_floor": 2.0},
        "ooc": {"rmat_scale": 11, "ratio": 0.85},
        "persona": {"trials": 1, "epochs": 2},
        "serving": {"nodes": 20_000, "queries": 5000, "floor": 6000.0,
                    "p99_ms": 200.0},
        "table3": {"ipc_nodes": 2000},
        "table5": {"scale": 0.1, "mpgp_nodes": 2000, "mpgp_floor": 2.0},
        "table9": {"scale": 0.2, "epochs": 1},
    },
}

_size = "full"


def use_size(size: str) -> None:
    """Select the :data:`SIZES` row later ``bench_size`` calls read."""
    global _size
    _size = size


def bench_size(bench: str = "default") -> Dict[str, float]:
    """``bench``'s parameters at the selected size."""
    row = SIZES[_size]
    return {**row["default"], **row[bench]}


def bench_dataset(name: str, scale: float | None = None) -> Dataset:
    return load(name, scale=scale if scale is not None
                else bench_size()["scale"])


def bench_epochs() -> int:
    return bench_size()["epochs"]


def bench_suite(names: Sequence[str] | None = None) -> List[Dataset]:
    return [bench_dataset(n) for n in (names or ("FL", "YT", "LJ", "OR", "TW"))]


def run_once(benchmark, fn: Callable, *args, **kwargs):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)


def print_table(title: str, headers: Sequence[str],
                rows: Sequence[Sequence]) -> None:
    """Print an aligned table (the bench's reproduced figure/table)."""
    widths = [len(h) for h in headers]
    str_rows = [[_fmt(c) for c in row] for row in rows]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    print(f"\n=== {title} ===")
    print("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    print("  ".join("-" * w for w in widths))
    for row in str_rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)))


def _fmt(cell) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000 or abs(cell) < 0.01:
            return f"{cell:.3g}"
        return f"{cell:.3f}"
    return str(cell)


#: Reference numbers transcribed from the paper, used in bench printouts
#: so every run shows paper-vs-measured side by side.
PAPER = {
    "fig5_speedup_vs": {
        "KnightKing": 9.25, "HuGE-D": 6.56, "PBG": 26.2, "DistDGL": 51.9,
    },
    "table4_auc": {
        "PBG": {"YT": 0.753, "LJ": 0.882, "OR": 0.955, "TW": 0.912},
        "DistDGL": {"YT": 0.894, "LJ": 0.718, "OR": 0.815, "TW": None},
        "KnightKing": {"YT": 0.904, "LJ": 0.963, "OR": 0.918, "TW": None},
        "DistGER": {"YT": 0.966, "LJ": 0.976, "OR": 0.921, "TW": 0.919},
    },
    "table5a_partition_seconds": {
        "FL": {"PBG": 383.28, "METIS": 127.72, "MPGP": 15.96},
        "YT": {"PBG": 349.15, "METIS": 116.30, "MPGP": 13.56},
        "LJ": {"PBG": 458.52, "METIS": 425.19, "MPGP": 36.42},
        "OR": {"PBG": 2662.62, "METIS": 2761.25, "MPGP": 294.68},
        "TW": {"PBG": 79200.0, "METIS": None, "MPGP": 32400.0},
    },
    "fig10_message_reduction": 0.45,
    "fig10_walk_time_improvement": 0.389,
    "fig10_walk_speedup": {"KnightKing": 3.32, "HuGE-D": 3.88},
    "fig10_dsgl_vs_pword2vec": 4.31,
    "fig10_length_reduction": 0.632,
    "fig10_rounds_reduction": 0.18,
    "fig12_walk_time_reduction": {"deepwalk": 0.411, "node2vec": 0.516},
    "fig12_training_speedup": {"deepwalk": 17.7, "node2vec": 21.3},
    "fig6_tw_times": {1: 3090.0, 2: 1739.0, 4: 1197.0, 8: 746.0},
    "fig6_or_times": {1: 304.0, 2: 204.0, 4: 149.0, 8: 89.0},
    "table3_memory_gb": {
        "FL": {"KnightKing": 0.66, "DistGER": 0.41},
        "YT": {"KnightKing": 4.11, "DistGER": 1.36},
        "LJ": {"KnightKing": 7.65, "DistGER": 1.95},
        "OR": {"KnightKing": 10.98, "DistGER": 3.27},
        "TW": {"KnightKing": None, "DistGER": 20.18},
    },
    "table6_overhead_weighted": {
        "FL": 11.585 / 10.038, "YT": 52.981 / 49.982, "LJ": 72.598 / 70.143,
        "OR": 258.966 / 233.096, "TW": 2890.743 / 2779.802,
    },
    "table9_gpu": {
        "FL": (1.791, 0.653), "YT": (27.529, 20.451), "LJ": (29.791, 27.835),
        "OR": (51.959, 46.341), "TW": (299.896, 390.081),
    },
}
