"""Ablation: learning-rate schedules under the DSGL trainer.

word2vec's linear decay is the default every system in the paper
inherits; this ablation trains DistGER on the LiveJournal stand-in under
each schedule at the same budget and scores link-prediction AUC on one
fixed edge split.

Measured shape: the stand-in runs are
*budget-starved* (2-3 epochs over a small corpus), so quality tracks the
total learning delivered -- the area under the LR curve.  Constant wins,
linear/cosine follow, the fast-decaying inverse-sqrt trails.  At the
paper's scale (tens of epochs over 10⁶⁺-token corpora) the ranking
inverts for the classic reason decay exists: a constant rate keeps
perturbing converged rows.  The assertion below pins the mechanical,
scale-independent part: retained learning rate orders the scores.
"""

from __future__ import annotations

import pytest

from common import bench_dataset, bench_epochs, print_table, run_once
from repro.api import embed_graph
from repro.embedding import SCHEDULES
from repro.tasks import auc_from_split, split_edges

_scores = {}


@pytest.fixture(scope="module")
def split():
    graph = bench_dataset("LJ").graph
    return split_edges(graph, test_fraction=0.3, seed=0)


@pytest.mark.parametrize("schedule", sorted(SCHEDULES))
def test_schedule(benchmark, split, schedule):
    def run():
        result = embed_graph(
            split.train_graph, method="distger", num_machines=4, dim=32,
            epochs=max(2, bench_epochs()), seed=0, lr_schedule=schedule,
        )
        return auc_from_split(result.embeddings, split)

    auc = run_once(benchmark, run)
    _scores[schedule] = auc
    assert 0.5 < auc <= 1.0  # always better than coin-flipping


def test_schedule_report(benchmark):
    if len(_scores) < len(SCHEDULES):
        pytest.skip("run the parametrised benches first")
    run_once(benchmark, lambda: None)
    rows = [[name, _scores[name]] for name in sorted(_scores)]
    print_table(
        "Ablation: LR schedules, DistGER on LJ stand-in "
        "(same budget, same edge split)",
        ["schedule", "link-prediction AUC"],
        rows,
    )
    # Budget-starved regime: scores follow the area under the LR curve.
    # Constant retains the most learning, inverse-sqrt (decay=24) the
    # least; linear and cosine sit between them.
    assert _scores["constant"] > _scores["inverse-sqrt"]
    for name in ("linear", "cosine"):
        assert _scores["inverse-sqrt"] - 0.05 < _scores[name] \
            < _scores["constant"] + 0.05, (name, _scores[name])
