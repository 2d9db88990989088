"""Ablation: DSGL's three improvements, isolated.

The paper calls out three design choices in the learner (§4.2):
multi-window batch size (Improvement-II), and hotness-block vs full vs no
synchronisation (Improvement-III); Improvement-I (buffers + frequency
order) is implicit in DSGL vs Pword2vec (bench_fig10).  This bench sweeps
both knobs and reports speed, sync traffic, and embedding quality.
"""

from __future__ import annotations

import pytest

from common import bench_dataset, print_table, run_once
from repro.embedding import DistributedTrainer, TrainConfig
from repro.partition import MPGPPartitioner
from repro.runtime import Cluster
from repro.tasks import auc_from_split, split_edges
from repro.walks import DistributedWalkEngine, WalkConfig

_mw = {}
_sync = {}


def _sampled(ds_name="LJ"):
    ds = bench_dataset(ds_name)
    split = split_edges(ds.graph, test_fraction=0.5, seed=0)
    assignment = MPGPPartitioner().partition(split.train_graph, 4).assignment
    cluster = Cluster(4, assignment, seed=1)
    walks = DistributedWalkEngine(split.train_graph, cluster,
                                  WalkConfig.distger()).run()
    return split, assignment, walks


@pytest.fixture(scope="module")
def corpus_fixture():
    return _sampled()


@pytest.mark.parametrize("multi_windows", (1, 2, 4, 8))
def test_ablation_multi_windows(benchmark, corpus_fixture, multi_windows):
    split, assignment, walks = corpus_fixture
    cluster = Cluster(4, assignment, seed=1)
    cfg = TrainConfig(dim=32, epochs=2, multi_windows=multi_windows)
    trainer = DistributedTrainer(walks.corpus, cluster, cfg, learner="dsgl",
                                 walk_machines=walks.walk_machines)
    result = run_once(benchmark, trainer.train)
    _mw[multi_windows] = (result.wall_seconds,
                          auc_from_split(result.embeddings, split))


@pytest.mark.parametrize("sync_mode", ("none", "hotness", "full"))
def test_ablation_sync_mode(benchmark, corpus_fixture, sync_mode):
    split, assignment, walks = corpus_fixture
    cluster = Cluster(4, assignment, seed=1)
    cfg = TrainConfig(dim=32, epochs=2, sync_mode=sync_mode)
    trainer = DistributedTrainer(walks.corpus, cluster, cfg, learner="dsgl",
                                 walk_machines=walks.walk_machines)
    result = run_once(benchmark, trainer.train)
    _sync[sync_mode] = (cluster.metrics.sync_bytes / 1e6,
                        auc_from_split(result.embeddings, split))


def test_ablation_dsgl_report(benchmark):
    if not _mw or not _sync:
        pytest.skip("run the parametrised benches first")
    run_once(benchmark, lambda: None)
    print_table(
        "Ablation: multi-window batch size (Improvement-II)",
        ["multi_windows", "train s", "AUC"],
        [[mw, *vals] for mw, vals in sorted(_mw.items())],
    )
    print_table(
        "Ablation: synchronisation strategy (Improvement-III)",
        ["sync mode", "sync MB", "AUC"],
        [[mode, *vals] for mode, vals in sorted(_sync.items())],
    )
    # Improvement-II: batching >= 2 windows should not be slower than
    # window-at-a-time (the Pword2vec regime).
    assert _mw[2][0] <= _mw[1][0] * 1.1
    # Improvement-III: hotness sync ships far fewer bytes than full sync
    # at comparable quality.
    assert _sync["hotness"][0] < _sync["full"][0]
    assert _sync["hotness"][1] > _sync["full"][1] - 0.05
