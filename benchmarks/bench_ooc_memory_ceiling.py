"""Out-of-core RSS ceiling: ``backing="mmap"`` vs ``"shm"`` peak memory.

The point of the mmap backing is that the big read-only blocks -- the
flat corpus above all -- stop charging the processes' resident memory:
the corpus spills to file-backed ``.npy`` blocks as it is built (every
round written through and synced, its pages dropped by
``MADV_DONTNEED``), workers fault pages through the OS cache on demand,
and descriptor-shipping training never materialises token pages in the
parent.  Gate: on an R-MAT workload whose corpus dominates memory, the
mmap run's peak-RSS *delta* over its post-graph-build baseline is at
most ``RATIO`` (0.5) of the shm run's -- with byte-identical embeddings
and corpus, so the saving is pure transport.

Each backing runs in a fresh subprocess (this file, ``--child``) so the
two peaks cannot contaminate each other: ``VmHWM`` is per-process and
monotonic.  The delta (peak minus the baseline sampled after the graph
is built) isolates the pipeline's own footprint from interpreter +
graph fixed costs shared by both runs.

``--size smoke`` runs 2^11 R-MAT nodes with a relaxed 0.85 ratio; the
full size (2^13 nodes) shows the ceiling clearly (corpus ~50 MB vs a
few-MB graph).  The child takes its R-MAT scale on argv: it runs
outside pytest and cannot see the ``--size`` option.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile

import pytest

from common import bench_size, print_table, run_once

SIZE = bench_size("ooc")
SCALE = SIZE["rmat_scale"]
RATIO = SIZE["ratio"]
EDGE_FACTOR = 8
WALKS = 10
LENGTH = 80


def _status_kb(field: str) -> int:
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise KeyError(field)


def _child(backing: str, spill_dir: str, scale: int) -> None:
    """Run one embed under ``backing`` on an R-MAT 2^``scale`` graph and
    report peaks as JSON."""
    import numpy as np

    from repro.api import embed_graph
    from repro.graph.generators import rmat

    graph = rmat(scale, edge_factor=EDGE_FACTOR, seed=1)
    baseline_kb = _status_kb("VmRSS")
    result = embed_graph(
        graph, method="knightking", kernel="deepwalk", num_machines=2,
        dim=16, epochs=1, seed=3, walk_length=LENGTH, walks_per_node=WALKS,
        execution="process", workers=2, backing=backing,
        spill_dir=spill_dir or None)
    peak_kb = _status_kb("VmHWM")
    corpus = result.corpus
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(result.embeddings).tobytes())
    digest.update(np.ascontiguousarray(corpus.tokens).tobytes())
    digest.update(np.ascontiguousarray(corpus.offsets).tobytes())
    split = corpus.storage_bytes()
    print(json.dumps({
        "backing": backing,
        "baseline_kb": baseline_kb,
        "peak_kb": peak_kb,
        "delta_kb": max(0, peak_kb - baseline_kb),
        "digest": digest.hexdigest(),
        "corpus_tokens": corpus.total_tokens,
        "corpus_resident_bytes": split["resident"],
        "corpus_mapped_bytes": split["mapped"],
    }))
    corpus.close()


def _run_child(backing: str, spill_dir: str, scale: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [p for p in (env.get("PYTHONPATH"),
                     os.path.join(os.path.dirname(__file__), "..", "src"))
         if p])
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", backing,
         spill_dir, str(scale)],
        env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_ooc_memory_ceiling(benchmark):
    if not os.path.exists("/proc/self/status"):
        pytest.skip("procfs required for VmHWM accounting")
    with tempfile.TemporaryDirectory(prefix="repro-ooc-") as spill_dir:
        shm = _run_child("shm", "", SCALE)
        mmap_run = run_once(benchmark, _run_child, "mmap", spill_dir, SCALE)

    print_table(
        f"Out-of-core RSS ceiling (R-MAT 2^{SCALE} nodes x{EDGE_FACTOR}, "
        f"r={WALKS} L={LENGTH}, {shm['corpus_tokens']} tokens)",
        ["backing", "baseline MB", "peak MB", "delta MB",
         "corpus resident MB", "corpus mapped MB"],
        [[run["backing"], run["baseline_kb"] / 1024,
          run["peak_kb"] / 1024, run["delta_kb"] / 1024,
          run["corpus_resident_bytes"] / 1e6,
          run["corpus_mapped_bytes"] / 1e6]
         for run in (shm, mmap_run)],
    )
    # Transport-only: identical bytes out of both runs.
    assert shm["digest"] == mmap_run["digest"], \
        "mmap backing changed embeddings or corpus bytes"
    assert shm["corpus_tokens"] == mmap_run["corpus_tokens"]
    # The mmap corpus really is out of core.
    assert mmap_run["corpus_mapped_bytes"] > 0
    assert mmap_run["corpus_resident_bytes"] < \
        mmap_run["corpus_mapped_bytes"]
    assert shm["corpus_mapped_bytes"] == 0
    # The ceiling itself.
    assert shm["delta_kb"] > 0, "shm run recorded no growth to compare"
    ceiling = RATIO * shm["delta_kb"]
    assert mmap_run["delta_kb"] <= ceiling, (
        f"mmap peak delta {mmap_run['delta_kb']} kB exceeds "
        f"{RATIO:.2f}x the shm delta ({shm['delta_kb']} kB)"
    )


if __name__ == "__main__":
    if len(sys.argv) == 5 and sys.argv[1] == "--child":
        _child(sys.argv[2], sys.argv[3], int(sys.argv[4]))
    else:  # pragma: no cover - manual invocation
        raise SystemExit(
            "run via pytest, or --child <backing> <spill_dir> <rmat_scale>")
