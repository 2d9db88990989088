"""Ablation: the walk-termination threshold μ (paper §2.1).

The paper states: "Setting a smaller μ generates longer walks, introducing
redundant information; while too large μ may not ensure good coverage".
This bench sweeps μ and reports average walk length, corpus size, and the
resulting link-prediction AUC, exposing the redundancy/coverage trade-off
and documenting the laptop-scale calibration (μ=0.82 ≈ the paper's 0.995
behaviour; see the calibration note in ``repro.walks.termination``).
"""

from __future__ import annotations

import pytest

from common import bench_dataset, print_table, run_once
from repro.embedding import DistributedTrainer, TrainConfig
from repro.partition import MPGPPartitioner
from repro.runtime import Cluster
from repro.tasks import auc_from_split, split_edges
from repro.walks import DistributedWalkEngine, WalkConfig

MUS = (0.95, 0.9, 0.82, 0.7)
_out = {}


@pytest.mark.parametrize("mu", MUS)
def test_ablation_mu(benchmark, mu):
    ds = bench_dataset("LJ")
    split = split_edges(ds.graph, test_fraction=0.5, seed=0)
    assignment = MPGPPartitioner().partition(split.train_graph, 4).assignment

    def run():
        cluster = Cluster(4, assignment, seed=1)
        cfg = WalkConfig.distger(mu=mu)
        walks = DistributedWalkEngine(split.train_graph, cluster, cfg).run()
        trainer = DistributedTrainer(
            walks.corpus, cluster, TrainConfig(dim=32, epochs=3),
            learner="dsgl", walk_machines=walks.walk_machines,
        )
        result = trainer.train()
        return (walks.stats.average_length, walks.corpus.total_tokens,
                auc_from_split(result.embeddings, split))

    _out[mu] = run_once(benchmark, run)


def test_ablation_mu_report(benchmark):
    if len(_out) < len(MUS):
        pytest.skip("run the parametrised benches first")
    run_once(benchmark, lambda: None)
    rows = [[mu, *_out[mu]] for mu in MUS]
    print_table(
        "Ablation: μ vs walk length / corpus / AUC (paper: smaller μ = "
        "longer walks; calibrated default 0.82)",
        ["mu", "avg length", "corpus tokens", "AUC"], rows,
    )
    # Monotone shape: smaller mu => longer walks.
    lengths = [_out[mu][0] for mu in MUS]
    assert all(a <= b + 1e-9 for a, b in zip(lengths, lengths[1:])), (
        "walk length should grow as mu decreases"
    )
