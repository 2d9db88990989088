"""Dynamic-update gate: incremental re-embedding vs full recompute.

The evolving-graph scenario the serving stack exists for: a trained
embedding is live, ~1% of the edge set churns, and the question is
whether the delta-CSR + walk-invalidation + warm-start path
(:func:`repro.apply_edge_stream`) refreshes the matrix meaningfully
faster than re-running the whole partition → sample → train pipeline --
without giving up task quality.

Two gates on the golden pipeline config (FL at scale 0.5, the
link-prediction split and hyper-parameters of
``tests/test_golden_pipeline.py``):

* **speedup** -- update wall-clock at least ``FLOOR`` times faster
  than a from-scratch embed of the churned graph (5x; ``--size smoke``
  relaxes it to 2x for shared CI runners);
* **quality** -- link-prediction AUC of the updated matrix inside the
  golden band of the full pipeline (0.9386 +/- 0.05).

The update runs the arc audit (``audit="arc"``): the bench measures the
traversed-pair invalidation mechanism, and on a dense stand-in graph
the conservative node audit degenerates to resampling everything (its
conservatism is a correctness feature, not a speed claim -- see
:mod:`repro.dynamic.invalidate`).
"""

from __future__ import annotations

import numpy as np

from common import bench_dataset, bench_size, print_table, run_once
from repro.api import apply_edge_stream, embed_graph
from repro.dynamic import random_churn
from repro.tasks import auc_from_split, split_edges

FLOOR = bench_size("dynamic")["floor"]
CHURN = 0.01
AUC_BAND = 0.05

#: The golden pipeline's full-run AUC at this exact config.
GOLDEN_AUC = 0.9386

GOLDEN = dict(method="distger", num_machines=2, dim=24, epochs=4, seed=7)


def test_dynamic_update_speedup_gate(benchmark):
    """Incremental update >= FLOOR x faster than recompute, AUC in band."""
    graph = bench_dataset("FL", scale=0.5).graph
    split = split_edges(graph, test_fraction=0.3, seed=1)
    prev = embed_graph(split.train_graph, **GOLDEN)
    stream = random_churn(split.train_graph, CHURN, seed=1)

    update = run_once(
        benchmark, apply_edge_stream,
        split.train_graph, stream, prev, audit="arc", **GOLDEN)

    # The honest baseline: a from-scratch embed of the *churned* graph.
    recompute = embed_graph(update.graph, **GOLDEN)

    speedup = recompute.wall_seconds / max(update.wall_seconds, 1e-9)
    auc = auc_from_split(update.embeddings, split)
    auc_full = auc_from_split(recompute.embeddings, split)
    stale = int(update.stats["stale_walks"])
    total = int(update.stats["total_walks"])

    print_table(
        f"Dynamic update: FL@0.5, {CHURN:.1%} churn "
        f"({stream.num_inserts}+ / {stream.num_deletes}-), "
        f"{stale}/{total} walks resampled",
        ["path", "wall s", "delta s", "invalidate s", "resample s",
         "train s", "AUC"],
        [
            ["incremental", update.wall_seconds, update.phase("delta"),
             update.phase("invalidate"), update.phase("resample"),
             update.phase("train"), auc],
            ["full recompute", recompute.wall_seconds, "-", "-", "-",
             "-", auc_full],
            ["speedup", speedup, "-", "-", "-", "-", "-"],
        ],
    )

    assert np.isfinite(update.embeddings).all()
    assert 0 < stale < total, (
        f"the arc audit resampled {stale}/{total} walks; the bench "
        f"needs a partial invalidation to measure anything")
    assert speedup >= FLOOR, (
        f"incremental update ran {speedup:.1f}x faster than recompute, "
        f"under the {FLOOR:.0f}x floor")
    assert abs(auc - GOLDEN_AUC) <= AUC_BAND, (
        f"updated-matrix AUC {auc:.4f} left the golden band "
        f"{GOLDEN_AUC} +/- {AUC_BAND}")
