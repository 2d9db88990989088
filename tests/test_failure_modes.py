"""Failure-injection and degenerate-input tests across subsystems.

Every reproduced component must fail loudly (a clear exception) or
degrade gracefully (a defined no-op) on the inputs real deployments hit:
empty graphs, non-terminating kernels, mismatched cluster shapes and
exhausted sampling budgets.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from repro.api import embed_graph
from repro.embedding import TrainConfig
from repro.graph import CSRGraph, star
from repro.partition import (
    MPGPPartitioner,
    ParallelMPGPPartitioner,
    PartitionConfig,
)
from repro.runtime import Cluster, ClusterMetrics
from repro.systems import DistGER
from repro.walks import Corpus, DistributedWalkEngine, WalkConfig

from oracles.walks import BSPEngine


class TestBSPFailureModes:
    def test_nonterminating_kernel_raises(self):
        cluster = Cluster(2, np.array([0, 1]), seed=0)
        engine = BSPEngine(cluster)

        def ping_pong(machine, item):
            return (1 - machine, item, 8)  # bounce forever

        with pytest.raises(RuntimeError, match="did not converge"):
            engine.run([(0, "walker")], ping_pong, max_supersteps=10)

    def test_empty_initial_items(self):
        cluster = Cluster(2, np.array([0, 1]), seed=0)
        stats = BSPEngine(cluster).run([], lambda m, i: None)
        assert stats.supersteps == 0
        assert stats.items_completed == 0

    def test_immediate_termination_counts_items(self):
        cluster = Cluster(1, np.array([0]), seed=0)
        stats = BSPEngine(cluster).run(
            [(0, i) for i in range(5)], lambda m, i: None)
        assert stats.items_completed == 5
        assert stats.messages_delivered == 0


class TestClusterFailureModes:
    def test_assignment_out_of_range(self):
        with pytest.raises(ValueError, match="outside the cluster"):
            Cluster(2, np.array([0, 1, 2]))

    def test_zero_machines(self):
        with pytest.raises(ValueError, match="positive"):
            Cluster(0, np.array([], dtype=np.int64))

    def test_engine_rejects_wrong_assignment_size(self, triangle):
        cluster = Cluster(1, np.zeros(5, dtype=np.int64), seed=0)
        with pytest.raises(ValueError, match="cover the graph"):
            DistributedWalkEngine(triangle, cluster)

    def test_metrics_reset_preserves_placement(self, triangle):
        cluster = Cluster(1, np.zeros(3, dtype=np.int64), seed=0)
        cluster.metrics.record_compute(0, 10.0)
        cluster.reset_metrics()
        assert cluster.metrics.total_compute == 0.0
        assert cluster.assignment.size == 3

    def test_metrics_merge_size_mismatch(self):
        with pytest.raises(ValueError, match="different cluster sizes"):
            ClusterMetrics(2).merge(ClusterMetrics(3))


class TestWalkEngineFailureModes:
    def test_empty_graph_produces_empty_corpus(self):
        g = CSRGraph.from_edges([], num_nodes=4)
        cluster = Cluster(1, np.zeros(4, dtype=np.int64), seed=0)
        result = DistributedWalkEngine(g, cluster, WalkConfig.distger()).run()
        assert result.corpus.num_walks == 0

    def test_rejection_cap_forces_progress(self):
        """Even a kernel that always rejects cannot stall the engine."""
        g = star(4)
        cluster = Cluster(1, np.zeros(5, dtype=np.int64), seed=0)
        config = WalkConfig.routine(kernel="node2vec", walk_length=5,
                                    walks_per_node=1, p=1000.0, q=1000.0,
                                    max_trials_per_step=2)
        result = DistributedWalkEngine(g, cluster, config).run()
        # All walks reached the full routine length despite the rejections.
        assert all(len(w) == 5 for w in result.corpus.walks)

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown mode"):
            WalkConfig(mode="telepathy")

    @pytest.mark.parametrize("field,value,match", [
        ("kernel", "quantum", "unknown kernel 'quantum'; options:.*huge"),
        ("kernel", None, "unknown kernel None"),
        ("kernel", "node2vec-alias", r"unknown kernel 'node2vec-alias'; "
         r"options: \['deepwalk', 'huge', 'huge\+', 'node2vec'\]$"),
        ("p", 0.0, "p must be finite and > 0"),
        ("p", -1.0, "p must be finite and > 0"),
        ("q", float("nan"), "q must be finite and > 0"),
        ("q", float("inf"), "q must be finite and > 0"),
        ("max_trials_per_step", 2.5, "max_trials_per_step must be an integer"),
        ("max_trials_per_step", 0, "max_trials_per_step must be finite"),
        ("min_length", 5.0, "min_length must be an integer"),
        ("max_length", 80.5, "max_length must be an integer"),
        ("min_rounds", 1.5, "min_rounds must be an integer"),
        ("max_rounds", 10.0, "max_rounds must be an integer"),
        ("walk_length", 12.0, "walk_length must be an integer"),
    ])
    def test_bad_config_rejected_at_construction(self, field, value, match):
        """Before any engine, partitioner or lane buffer exists -- the
        kernel name and p/q used to fail inside the engine's __init__,
        a fractional trial cap not at all."""
        with pytest.raises(ValueError, match=match):
            WalkConfig(**{"kernel": "node2vec", field: value})

    def test_integral_numpy_values_accepted(self):
        config = WalkConfig(kernel="HuGE", max_length=np.int64(40),
                            max_trials_per_step=np.int32(4))
        assert config.max_length == 40

    @pytest.mark.parametrize("field,value,match", [
        ("subsample", float("nan"), "subsample must be finite and >= 0"),
        ("subsample", float("inf"), "subsample must be finite and >= 0"),
        ("subsample", -1e-3, "subsample must be finite and >= 0"),
        ("window", 2.5, "window must be an integer"),
        ("dim", 16.0, "dim must be an integer"),
        ("negatives", 2.5, "negatives must be an integer"),
        ("epochs", 1.5, "epochs must be an integer"),
        ("multi_windows", 2.0, "multi_windows must be an integer"),
        ("dsgl_threads", True, "dsgl_threads must be an integer"),
        ("sync_period_tokens", 100.5,
         "sync_period_tokens must be an integer"),
    ])
    def test_bad_train_config_rejected_at_construction(self, triangle,
                                                       field, value, match):
        """A NaN threshold used to train on zero tokens and a fractional
        window to fail only after partitioning and sampling; both are
        refused by the config -- and so by embed_graph before any phase
        runs."""
        with pytest.raises(ValueError, match=match):
            TrainConfig(**{field: value})
        with mock.patch.object(DistributedWalkEngine, "run",
                               side_effect=AssertionError("sampled")), \
                pytest.raises(ValueError, match=match):
            embed_graph(triangle, num_machines=1, **{field: value})


class TestCorpusFailureModes:
    def test_walk_outside_universe(self):
        corpus = Corpus(3)
        with pytest.raises(ValueError, match="outside the universe"):
            corpus.add_walk([0, 7])

    def test_merge_universe_mismatch(self):
        with pytest.raises(ValueError, match="different universes"):
            Corpus(3).merge(Corpus(4))

    def test_load_rejects_missing_header(self, tmp_path):
        bad = tmp_path / "corpus.txt"
        bad.write_text("0 1 2\n")
        with pytest.raises(ValueError, match="header"):
            Corpus.load(str(bad))

    def test_empty_walk_is_noop(self):
        corpus = Corpus(3)
        corpus.add_walk([])
        assert corpus.num_walks == 0


class TestSystemFailureModes:
    def test_unknown_method(self, triangle):
        from repro.api import embed_graph

        with pytest.raises(KeyError, match="unknown method"):
            embed_graph(triangle, method="gnn-transformer")

    def test_kernel_on_non_walk_method(self, triangle):
        from repro.api import embed_graph

        with pytest.raises(ValueError, match="does not accept a kernel"):
            embed_graph(triangle, method="pbg", kernel="huge")

    def test_flat_hyperparameters_validated(self, triangle):
        from repro.api import embed_graph

        with pytest.raises(ValueError, match="lr_schedule"):
            embed_graph(triangle, method="distger", num_machines=1,
                        lr_schedule="warp")

    @pytest.mark.parametrize("build", [
        lambda g: WalkConfig(rng_protocol="walker"),
        lambda g: TrainConfig(rng_protocol="shared"),
        lambda g: DistGER(train_overrides={"rng_protocol": "shared"}),
        lambda g: DistGER(walk_overrides={"rng_protocol": "walker"}),
        lambda g: embed_graph(g, num_machines=1, rng_protocol="walker"),
        lambda g: embed_graph(g, num_machines=1,
                              train_rng_protocol="shared"),
    ], ids=["WalkConfig", "TrainConfig", "train_overrides",
            "walk_overrides", "embed_graph", "embed_graph-train"])
    def test_removed_rng_protocol_knob_is_rejected(self, triangle, build):
        """Counter streams are the only randomness; the retired selector
        must fail at the boundary, not be swallowed by override routing."""
        with pytest.raises(TypeError, match="rng_protocol"):
            build(triangle)

    @pytest.mark.parametrize("build", [
        lambda g: WalkConfig(backend="loop"),
        lambda g: PartitionConfig(backend="loop"),
        lambda g: MPGPPartitioner(backend="loop"),
        lambda g: ParallelMPGPPartitioner(backend="loop"),
        lambda g: DistGER(walk_overrides={"backend": "loop"}),
        lambda g: DistGER(partition_overrides={"backend": "loop"}),
        lambda g: embed_graph(g, num_machines=1, backend="loop"),
        lambda g: embed_graph(g, num_machines=1, partition_backend="loop"),
    ], ids=["WalkConfig", "PartitionConfig", "MPGPPartitioner",
            "ParallelMPGPPartitioner", "walk_overrides",
            "partition_overrides", "embed_graph", "embed_graph-partition"])
    def test_removed_backend_knobs_are_rejected(self, triangle, build):
        """One engine per phase: the walk mode picks the walk engine and
        MPGP always scores from its table, so the retired selectors are
        the constructors' TypeError."""
        with pytest.raises(TypeError, match="backend"):
            build(triangle)

    @pytest.mark.parametrize("value", ["loop", "vectorized", "gpu"])
    def test_train_backend_is_auto_or_torch(self, value):
        with pytest.raises(ValueError, match="options: 'auto', 'torch'"):
            TrainConfig(backend=value)

    def test_more_machines_than_nodes_fails_loudly(self, triangle):
        from repro.api import embed_graph

        with pytest.raises(ValueError, match="cannot split"):
            embed_graph(triangle, method="distger", num_machines=8,
                        dim=4, epochs=1)

    def test_single_edge_graph(self):
        from repro.api import embed_graph

        g = CSRGraph.from_edges([(0, 1)])
        result = embed_graph(g, method="distger", num_machines=2, dim=4,
                             epochs=1)
        assert result.embeddings.shape == (2, 4)
