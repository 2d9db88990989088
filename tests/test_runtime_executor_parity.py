"""Cross-process parity: ``execution="process"``/``"pipeline"`` vs
``"serial"``, byte for byte.

The process runtime (:mod:`repro.runtime.executor`) schedules real OS
processes, yet every result must be **byte-identical** to the serial
backends: all randomness flows through counter-based streams, so walks,
MPGP assignments and trained embeddings are pure functions of the seed --
never of scheduling.  This suite pins that contract for 1/2/4 workers
across undirected/weighted/directed graphs, plus the executor's failure
semantics (worker exceptions surface promptly, no deadlock, no orphaned
pool) and pickling round trips for the shared-memory buffers the phases
communicate through.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.embedding import DistributedTrainer, TrainConfig
from repro.graph import powerlaw_cluster
from repro.partition import ParallelMPGPPartitioner, PartitionConfig
from repro.partition.balance import WorkloadBalancePartitioner
from repro.runtime import Cluster
from repro.runtime.executor import (
    ProcessExecutor,
    SharedArray,
    attach_shared_array,
    resolve_execution,
    resolved_worker_count,
    split_ranges,
)
from repro.walks import DistributedWalkEngine, WalkConfig

WORKER_COUNTS = (1, 2, 4)
GRAPHS = ("undirected", "weighted", "directed")


def graph_family(kind):
    if kind == "undirected":
        return powerlaw_cluster(150, attach=4, triangle_prob=0.4, seed=2)
    if kind == "weighted":
        return powerlaw_cluster(130, attach=3, seed=3).with_random_weights(
            np.random.default_rng(4))
    if kind == "directed":
        return powerlaw_cluster(130, attach=3, triangle_prob=0.3,
                                seed=5).as_directed()
    raise KeyError(kind)


def run_walks(graph, execution, workers=0, machines=3, **overrides):
    part = WorkloadBalancePartitioner().partition(graph, machines)
    cluster = Cluster(machines, part.assignment, seed=5)
    cfg = WalkConfig.distger(**{"max_rounds": 2, "min_rounds": 2,
                                "execution": execution, "workers": workers,
                                **overrides})
    return DistributedWalkEngine(graph, cluster, cfg).run(), cluster


def assert_corpora_equal(ref, other):
    assert len(ref.walks) == len(other.walks)
    for a, b in zip(ref.walks, other.walks):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(ref.occurrences, other.occurrences)


def assert_walk_runs_equal(ref_run, run):
    """Corpus bytes, walk placement, WalkStats and every simulated metric
    counter (all increments are integer-valued floats, so the deferred
    reconstruction lands on the serial counters exactly)."""
    (ref, ref_cluster), (result, cluster) = ref_run, run
    assert_corpora_equal(ref.corpus, result.corpus)
    assert ref.walk_machines == result.walk_machines
    assert ref.stats.total_trials == result.stats.total_trials
    assert ref.stats.total_steps == result.stats.total_steps
    assert ref.stats.walk_lengths == result.stats.walk_lengths
    assert ref.stats.rounds == result.stats.rounds
    assert ref.stats.kl_trace == result.stats.kl_trace
    assert ref_cluster.metrics.as_dict() == cluster.metrics.as_dict()
    assert ref_cluster.metrics.message_byte_matrix == \
        cluster.metrics.message_byte_matrix


def shm_segments() -> set:
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


#: Walk configurations of the parity matrix (``run_walks`` overrides).
WALK_MODES = {
    "incom": {},
    "routine": dict(kernel="node2vec", mode="routine", walk_length=20,
                    walks_per_node=2, p=2.0, q=0.5),
    "node2vec-alias": dict(kernel="node2vec-alias", p=2.0, q=0.5),
}


@pytest.mark.parametrize("execution", ("process", "pipeline"))
class TestWalkExecutorParity:
    """One worker-pool runner behind both executions -- a barrier per
    round (``process``) or rounds sampled ahead of the flush
    (``pipeline``, speculating past the KL check) -- must land on the
    serial bytes."""

    @pytest.fixture(scope="class")
    def serial_runs(self):
        return {(kind, mode): run_walks(graph_family(kind), "serial", **cfg)
                for kind in GRAPHS for mode, cfg in WALK_MODES.items()}

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("mode", WALK_MODES)
    @pytest.mark.parametrize("kind", GRAPHS)
    def test_corpora_stats_metrics_byte_identical(self, serial_runs, kind,
                                                  mode, workers, execution):
        run = run_walks(graph_family(kind), execution, workers,
                        **WALK_MODES[mode])
        assert_walk_runs_equal(serial_runs[kind, mode], run)

    def test_node2vec_alias_shared_tables_match_loop(self, execution):
        """Walk workers build their node2vec-alias kernel from the
        parent's exported flat tables (no per-worker Σ deg(u) rebuild);
        the loop reference agrees with what they sample."""
        loop, _ = run_walks(graph_family("weighted"), "serial",
                            backend="loop", **WALK_MODES["node2vec-alias"])
        proc, _ = run_walks(graph_family("weighted"), execution, 2,
                            **WALK_MODES["node2vec-alias"])
        assert_corpora_equal(loop.corpus, proc.corpus)

    def test_kl_round_termination_matches(self, execution):
        """The walk-count rule sees identical corpora, so every executor
        stops after the same number of rounds; rounds the pipeline
        sampled past the stop leave no trace."""
        graph = graph_family("undirected")
        ref = run_walks(graph, "serial", max_rounds=6)
        assert_walk_runs_equal(ref, run_walks(graph, execution, 2,
                                              max_rounds=6))

    def test_engine_surfaces_worker_failure_and_cleans_up(self, execution,
                                                          monkeypatch):
        """A failure inside a walk worker re-raises from ``engine.run``
        and the runner's shared segments are released on the way out."""
        import multiprocessing

        if multiprocessing.get_start_method() != "fork":
            pytest.skip("failure injection relies on fork inheritance")
        from repro.walks.vectorized import BatchWalkRunner

        def explode(self, *args, **kwargs):
            raise RuntimeError("injected worker failure")

        # Patch before the pool forks so the workers inherit the fault.
        monkeypatch.setattr(BatchWalkRunner, "run_walks", explode)
        graph = graph_family("undirected")
        part = WorkloadBalancePartitioner().partition(graph, 2)
        cluster = Cluster(2, part.assignment, seed=1)
        cfg = WalkConfig.distger(max_rounds=2, min_rounds=2,
                                 execution=execution, workers=2,
                                 backing="shm")
        engine = DistributedWalkEngine(graph, cluster, cfg)
        before = shm_segments()
        with pytest.raises(RuntimeError, match="injected worker failure"):
            engine.run()
        assert shm_segments() <= before


class TestWalkRunner:
    @pytest.mark.parametrize("depth", (1, 2, 4))
    def test_queue_depth_is_result_invariant(self, depth):
        """The backpressure bound trades memory and overlap only -- the
        runner hands out the same round bytes at any depth."""
        from repro.runtime.executor import StreamingWalkRunner
        from repro.walks.corpus import Corpus
        from repro.walks.kernels import make_kernel

        graph = graph_family("undirected")
        ref, ref_cluster = run_walks(graph, "serial", max_rounds=3,
                                     min_rounds=3)
        cfg = WalkConfig.distger(max_rounds=3, min_rounds=3, workers=2)
        sources = np.flatnonzero(graph.degrees > 0)
        corpus = Corpus(graph.num_nodes)
        with StreamingWalkRunner(
                graph, ref_cluster.walk_seed_root, cfg,
                make_kernel("huge", graph), sources, max_rounds=3,
                depth=depth) as runner:
            assert runner.depth == min(depth, 3)
            for _ in range(3):
                walks = runner.next_round()
                corpus.add_walks(walks.paths, walks.lengths)
                runner.release_round()
        assert_corpora_equal(ref.corpus, corpus)

    def test_alias_sampler_table_export_roundtrip(self):
        """from_tables(export_tables()) reproduces the building sampler's
        draws exactly (the shared-memory reuse contract)."""
        from repro.walks.alias_sampling import SecondOrderAliasSampler

        graph = graph_family("weighted")
        built = SecondOrderAliasSampler(graph, p=2.0, q=0.5)
        wrapped = SecondOrderAliasSampler.from_tables(
            graph, 2.0, 0.5, built.export_tables())
        assert wrapped.build_seconds == 0.0
        assert wrapped.num_table_entries == built.num_table_entries
        rng = np.random.default_rng(7)
        for _ in range(50):
            cur = int(rng.integers(0, graph.num_nodes))
            while graph.degree(cur) == 0:
                cur = int(rng.integers(0, graph.num_nodes))
            # First-order (walk start) half the time, otherwise a real
            # arc (prev -> cur): any neighbour works, the graph is
            # undirected so the reverse arc is stored too.
            prev = -1
            if rng.random() < 0.5:
                nbrs = graph.neighbors(cur)
                prev = int(nbrs[int(rng.integers(0, nbrs.size))])
            u1, u2 = float(rng.random()), float(rng.random())
            assert built.sample_step_with_uniforms(cur, prev, u1, u2) == \
                wrapped.sample_step_with_uniforms(cur, prev, u1, u2)


class TestTrainParity:
    """Process slice training reproduces serial embeddings bit for bit."""

    @pytest.fixture(scope="class")
    def walk_result(self):
        graph = powerlaw_cluster(140, attach=4, triangle_prob=0.4, seed=3)
        part = WorkloadBalancePartitioner().partition(graph, 4)
        cluster = Cluster(4, part.assignment, seed=5)
        cfg = WalkConfig.distger(max_rounds=2, min_rounds=2)
        result = DistributedWalkEngine(graph, cluster, cfg).run()
        return result, part.assignment

    def train(self, walk_result, execution, workers=0, **overrides):
        result, assignment = walk_result
        learner = overrides.pop("learner", "dsgl")
        cluster = Cluster(4, assignment, seed=9)
        cfg = TrainConfig(dim=16, epochs=2, seed=11, execution=execution,
                          workers=workers, **overrides)
        trainer = DistributedTrainer(result.corpus, cluster, cfg,
                                     learner=learner,
                                     walk_machines=result.walk_machines)
        return trainer.train(), cluster

    def assert_process_equals_serial(self, walk_result, workers, **kwargs):
        ref, ref_cluster = self.train(walk_result, "serial", **kwargs)
        result, cluster = self.train(walk_result, "process", workers,
                                     **kwargs)
        np.testing.assert_array_equal(ref.embeddings, result.embeddings)
        np.testing.assert_array_equal(ref.model.phi_out,
                                      result.model.phi_out)
        assert ref.tokens_processed == result.tokens_processed
        assert ref.sync_rounds == result.sync_rounds
        assert ref_cluster.metrics.as_dict() == cluster.metrics.as_dict()
        return ref

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_dsgl_embeddings_bit_equal(self, walk_result, workers):
        self.assert_process_equals_serial(walk_result, workers)

    @pytest.mark.parametrize("workers", (1, 2))
    @pytest.mark.parametrize("learner", ("dsgl", "pword2vec"))
    @pytest.mark.parametrize("backend", ("loop", "auto"))
    def test_loop_backend_and_subsampling_parity(self, walk_result, backend,
                                                 learner, workers):
        """Subsampling is a pure function of corpus position, so the
        workers keep exactly the tokens the parent would."""
        ref = self.assert_process_equals_serial(
            walk_result, workers, backend=backend, learner=learner,
            subsample=1e-3)
        assert 0 < ref.tokens_processed < \
            2 * walk_result[0].corpus.total_tokens

    @pytest.mark.parametrize("learner", ("pword2vec", "sgns"))
    def test_other_learners_bit_equal(self, walk_result, learner):
        self.assert_process_equals_serial(walk_result, 2, learner=learner)


class TestPartitionParity:
    """Process-partitioned MPGP segments merge to identical assignments."""

    @pytest.mark.parametrize("kind", GRAPHS)
    def test_assignments_byte_identical(self, kind):
        graph = graph_family(kind)
        serial = ParallelMPGPPartitioner().partition(graph, 4).assignment
        for workers in (2, 4):
            proc = ParallelMPGPPartitioner(
                execution="process",
                workers=workers).partition(graph, 4).assignment
            np.testing.assert_array_equal(serial, proc)

    def test_loop_backend_process_parity(self):
        graph = graph_family("undirected")
        serial = ParallelMPGPPartitioner(backend="loop").partition(
            graph, 4).assignment
        proc = ParallelMPGPPartitioner(
            backend="loop", execution="process",
            workers=2).partition(graph, 4).assignment
        np.testing.assert_array_equal(serial, proc)

    def test_from_config_carries_execution(self):
        cfg = PartitionConfig(execution="process", workers=3)
        par = ParallelMPGPPartitioner.from_config(cfg)
        assert (par.execution, par.workers) == ("process", 3)


class TestPipelineDataflow:
    """The system-level streaming dataflow around the walk runner:
    partition ∥ sampling and the feed-gated trainer."""

    def test_async_partition_matches_direct_call(self):
        from repro.partition.mpgp import MPGPPartitioner
        from repro.runtime.executor import run_partition_async

        graph = graph_family("undirected")
        direct = MPGPPartitioner(seed=3).partition(graph, 4)
        handle = run_partition_async(MPGPPartitioner(seed=3), graph, 4)
        async_result = handle.result()
        np.testing.assert_array_equal(direct.assignment,
                                      async_result.assignment)

    def test_system_pipeline_embeddings_byte_identical(self):
        """End to end (MPGP ∥ sampling, streamed rounds, gated trainer):
        pipeline == process == serial, embeddings, metrics and stats."""
        from repro import embed_graph

        graph = graph_family("undirected")
        runs = {
            execution: embed_graph(graph, num_machines=3, dim=12, epochs=1,
                                   seed=7, execution=execution, workers=2)
            for execution in ("serial", "process", "pipeline")
        }
        np.testing.assert_array_equal(runs["serial"].embeddings,
                                      runs["pipeline"].embeddings)
        np.testing.assert_array_equal(runs["process"].embeddings,
                                      runs["pipeline"].embeddings)
        assert runs["serial"].metrics.as_dict() == \
            runs["pipeline"].metrics.as_dict()
        for key, value in runs["serial"].stats.items():
            if key not in ("train_throughput", "partition_seconds"):
                assert runs["pipeline"].stats[key] == value, key

    def test_trainer_streams_behind_a_live_producer(self):
        """The feed's walk→train handshake: a trainer constructed over a
        still-growing corpus blocks until the producer finishes, then
        produces the same bytes as training the finished corpus."""
        import threading
        import time as _time

        from repro.walks.corpus import Corpus, CorpusFeed

        graph = powerlaw_cluster(120, attach=4, triangle_prob=0.4, seed=3)
        complete, _ = run_walks(graph, "serial", machines=2)
        reference = complete.corpus

        def train(corpus, feed=None):
            cluster = Cluster(2, np.zeros(graph.num_nodes, dtype=np.int64),
                              seed=9)
            cfg = TrainConfig(dim=12, epochs=1, seed=11)
            return DistributedTrainer(corpus, cluster, cfg,
                                      feed=feed).train()

        expected = train(reference)
        streaming = Corpus(graph.num_nodes)
        feed = CorpusFeed(streaming)

        def produce():
            for i in range(reference.num_walks):
                streaming.add_walk(reference.walk(i))
                if i % 100 == 0:
                    _time.sleep(0.005)
            feed.finish()

        producer = threading.Thread(target=produce)
        producer.start()
        try:
            result = train(streaming, feed=feed)
        finally:
            producer.join()
        np.testing.assert_array_equal(expected.embeddings, result.embeddings)


# ------------------------------------------------------------------ #
# Crash safety
# ------------------------------------------------------------------ #


def _boom(x):
    raise ValueError(f"boom {x}")


def _square(x):
    return x * x


def _hard_exit():
    os._exit(13)


def _add_one_inplace(handle):
    array = attach_shared_array(handle)
    array += 1
    return int(array.sum())


class TestCrashSafety:
    def test_worker_exception_surfaces(self):
        """A raising task propagates to the parent and shuts the pool
        down -- the batch neither hangs nor half-completes silently."""
        pool = ProcessExecutor(2)
        with pytest.raises(ValueError, match="boom"):
            pool.run(_boom, [(1,), (2,), (3,)])
        with pytest.raises(RuntimeError, match="shut down"):
            pool.run(_square, [(2,)])

    def test_pool_usable_after_failed_batch_elsewhere(self):
        """A failure tears down only its own pool; fresh pools work."""
        with ProcessExecutor(2) as pool:
            with pytest.raises(ValueError):
                pool.run(_boom, [(0,)])
        with ProcessExecutor(2) as pool:
            assert pool.run(_square, [(3,), (4,)]) == [9, 16]

    def test_hard_worker_death_surfaces(self):
        """A worker dying mid-task (os._exit) surfaces as
        BrokenProcessPool instead of deadlocking the parent."""
        with ProcessExecutor(1) as pool:
            with pytest.raises(BrokenProcessPool):
                pool.run(_hard_exit, [()])


# ------------------------------------------------------------------ #
# Shared-memory buffers
# ------------------------------------------------------------------ #


class TestSharedBuffers:
    @given(shape=st.lists(st.integers(1, 6), min_size=1, max_size=3),
           dtype=st.sampled_from(["int64", "float64", "float32", "uint8"]),
           seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_handle_pickle_roundtrip(self, shape, dtype, seed):
        """A pickled handle re-attaches to the same bytes, and writes
        through the attached view land in the owner's array."""
        rng = np.random.default_rng(seed)
        source = (rng.random(shape) * 100).astype(dtype)
        shared = SharedArray.create(source)
        try:
            handle = pickle.loads(pickle.dumps(shared.handle))
            assert handle == shared.handle
            view = attach_shared_array(handle)
            assert view.dtype == source.dtype
            np.testing.assert_array_equal(view, source)
            view[...] = view + 1
            np.testing.assert_array_equal(
                shared.array, source.astype(dtype) + 1)
        finally:
            shared.close()

    def test_cross_process_write_visibility(self):
        shared = SharedArray.create(np.arange(8, dtype=np.int64))
        try:
            with ProcessExecutor(1) as pool:
                total = pool.run(_add_one_inplace, [(shared.handle,)])[0]
            assert total == int(np.arange(1, 9).sum())
            np.testing.assert_array_equal(shared.array,
                                          np.arange(1, 9, dtype=np.int64))
        finally:
            shared.close()

    def test_close_is_idempotent(self):
        shared = SharedArray.create(np.ones(3))
        shared.close()
        shared.close()


# ------------------------------------------------------------------ #
# Knob resolution
# ------------------------------------------------------------------ #


class TestKnobs:
    def test_invalid_execution_rejected_everywhere(self):
        with pytest.raises(ValueError, match="execution"):
            resolve_execution("threads")
        with pytest.raises(ValueError, match="execution"):
            WalkConfig(execution="gpu")
        with pytest.raises(ValueError, match="execution"):
            TrainConfig(execution="gpu")
        with pytest.raises(ValueError, match="execution"):
            PartitionConfig(execution="gpu")
        with pytest.raises(ValueError, match="workers"):
            WalkConfig(workers=-1)

    def test_walk_execution_degrades_with_loop_backend(self):
        """The loop reference and fullpath mode are inherently serial."""
        assert WalkConfig(execution="process").resolved_execution() == \
            "process"
        assert WalkConfig(execution="process",
                          backend="loop").resolved_execution() == "serial"
        assert WalkConfig.huge_d(
            execution="process").resolved_execution() == "serial"

    def test_pipeline_execution_resolution(self):
        """Pipeline applies to vectorized walks, degrades exactly like
        process elsewhere, and resolves to the process slice path for
        training (the trainer is the streaming consumer, not a producer)."""
        from repro.partition import PartitionConfig

        assert WalkConfig(execution="pipeline").resolved_execution() == \
            "pipeline"
        assert WalkConfig(execution="pipeline",
                          backend="loop").resolved_execution() == "serial"
        assert WalkConfig.huge_d(
            execution="pipeline").resolved_execution() == "serial"
        assert TrainConfig(execution="pipeline").resolved_execution() == \
            "process"
        assert TrainConfig(execution="process").resolved_execution() == \
            "process"
        PartitionConfig(execution="pipeline")  # accepted for uniformity

    def test_partition_join_requires_pipeline_execution(self):
        graph = graph_family("undirected")
        part = WorkloadBalancePartitioner().partition(graph, 2)
        cluster = Cluster(2, part.assignment, seed=1)
        engine = DistributedWalkEngine(graph, cluster,
                                       WalkConfig.distger(max_rounds=1,
                                                          min_rounds=1,
                                                          execution="serial"))
        with pytest.raises(ValueError, match="partition_join"):
            engine.run(partition_join=lambda: part.assignment)

    def test_worker_count_resolution(self):
        assert resolved_worker_count(3) == 3
        assert resolved_worker_count(0) >= 1
        with pytest.raises(ValueError, match="workers"):
            resolved_worker_count(-2)

    def test_split_ranges_partition_the_index_space(self):
        for n, parts in ((10, 3), (4, 8), (1, 1), (100, 4)):
            ranges = split_ranges(n, parts)
            assert ranges[0][0] == 0 and ranges[-1][1] == n
            for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
                assert hi == lo

    def test_env_default_execution(self, monkeypatch):
        """REPRO_EXECUTION pushes the default onto the process backend
        (the CI tier-1 process job relies on this)."""
        monkeypatch.setenv("REPRO_EXECUTION", "process")
        monkeypatch.setenv("REPRO_WORKERS", "2")
        assert WalkConfig().execution == "process"
        assert TrainConfig().workers == 2
        assert PartitionConfig().execution == "process"
