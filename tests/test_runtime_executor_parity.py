"""Cross-process parity: ``execution="process"``/``"pipeline"`` vs
``"serial"``, byte for byte.

The process runtime (:mod:`repro.runtime.executor`) schedules real OS
processes, yet every result must be **byte-identical** to serial
execution: all randomness flows through counter-based streams, so walks,
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
    ExecutionContext,
    ProcessExecutor,
    SharedArray,
    attach_shared_array,
    split_ranges,
)
from repro.walks import DistributedWalkEngine, WalkConfig

from oracles.embedding import train_reference
from oracles.partition import GallopingParallelMPGPPartitioner
from oracles.walks import LoopWalkEngine

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


def run_walks(graph, execution, workers=0, machines=3,
              engine_cls=DistributedWalkEngine, **overrides):
    part = WorkloadBalancePartitioner().partition(graph, machines)
    cluster = Cluster(machines, part.assignment, seed=5)
    cfg = WalkConfig.distger(**{"max_rounds": 2, "min_rounds": 2,
                                "context": ExecutionContext(execution,
                                                            workers),
                                **overrides})
    return engine_cls(graph, cluster, cfg).run(), cluster


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
    "node2vec": dict(kernel="node2vec", p=2.0, q=0.5),
    "fullpath": dict(mode="fullpath"),
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

    def test_huge_shared_tables_match_loop(self, execution):
        """Walk workers build their HuGE kernel from the parent's shared
        flat tables (``row_cumsum`` and ``arc_accept`` on a weighted
        graph); the loop reference agrees with what they sample."""
        loop, _ = run_walks(graph_family("weighted"), "serial",
                            engine_cls=LoopWalkEngine)
        proc, _ = run_walks(graph_family("weighted"), execution, 2)
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
                                 context=ExecutionContext(execution, 2,
                                                          "shm"))
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
        cfg = WalkConfig.distger(max_rounds=3, min_rounds=3,
                                 context=ExecutionContext(workers=2))
        sources = np.flatnonzero(graph.degrees > 0)
        corpus = Corpus(graph.num_nodes)
        with StreamingWalkRunner(
                graph, ref_cluster.walk_seed_root, cfg,
                make_kernel(cfg, graph), sources, max_rounds=3,
                depth=depth) as runner:
            assert runner.depth == min(depth, 3)
            for _ in range(3):
                walks = runner.next_round()
                corpus.add_walks(walks.paths, walks.lengths)
                runner.release_round()
        assert_corpora_equal(ref.corpus, corpus)

    def test_kernel_table_export_roundtrip(self, monkeypatch):
        """A kernel over another kernel's ``tables`` (what a walk worker
        builds over the shared views) adopts them without a build and
        draws exactly what the building kernel draws."""
        from repro.walks.kernels import HuGEKernel, make_kernel
        from repro.walks.vectorized import _TrialLanes

        graph = graph_family("weighted")
        cfg = WalkConfig.distger()
        built = make_kernel(cfg, graph)
        assert set(built.tables) == {"row_cumsum", "arc_accept"}

        def no_build(self):
            raise AssertionError("a kernel over given tables rebuilt them")

        monkeypatch.setattr(HuGEKernel, "_build_tables", no_build)
        wrapped = make_kernel(cfg, graph, built.tables)
        assert all(wrapped.tables[key] is table
                   for key, table in built.tables.items())
        rng = np.random.default_rng(7)
        cur = rng.choice(np.flatnonzero(graph.degrees > 0), size=50)
        u1, u2 = rng.random((2, 50))
        draws = []
        for kernel in (built, wrapped):
            lanes = _TrialLanes()
            lanes.layout(np.ones(50, dtype=np.int64), np.arange(1, 51))
            arc, accepted = kernel.trial(lanes, cur, None, u1, u2)
            draws.append((arc.copy(), accepted.copy()))
        for want, got in zip(*draws):
            np.testing.assert_array_equal(got, want)


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

    def train(self, walk_result, execution, workers=0, reference=False,
              **overrides):
        """Train on the walk corpus; ``reference`` swaps in the
        per-window reference learners (in-process)."""
        result, assignment = walk_result
        learner = overrides.pop("learner", "dsgl")
        cluster = Cluster(4, assignment, seed=9)
        cfg = TrainConfig(dim=16, epochs=2, seed=11,
                          context=ExecutionContext(execution, workers),
                          **overrides)
        if reference:
            return train_reference(result.corpus, cluster, cfg,
                                   learner=learner,
                                   walk_machines=result.walk_machines), \
                cluster
        trainer = DistributedTrainer(result.corpus, cluster, cfg,
                                     learner=learner,
                                     walk_machines=result.walk_machines)
        return trainer.train(), cluster

    def assert_process_equals_serial(self, walk_result, workers,
                                     reference=False, **kwargs):
        ref, ref_cluster = self.train(walk_result, "serial",
                                      reference=reference, **kwargs)
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
    @pytest.mark.parametrize("reference", ("loop", "auto"))
    def test_loop_backend_and_subsampling_parity(self, walk_result,
                                                 reference, learner,
                                                 workers):
        """Subsampling is a pure function of corpus position, so the
        workers keep exactly the tokens the parent would -- and train
        them to the bytes of the per-window reference learners
        (``loop``) as well as of the serial batched run (``auto``)."""
        ref = self.assert_process_equals_serial(
            walk_result, workers, reference=reference == "loop",
            learner=learner, subsample=1e-3)
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
                context=ExecutionContext("process", workers)).partition(
                    graph, 4).assignment
            np.testing.assert_array_equal(serial, proc)

    def test_loop_backend_process_parity(self):
        """Worker-pool segments land on the galloping reference's
        assignment."""
        graph = graph_family("undirected")
        serial = GallopingParallelMPGPPartitioner().partition(
            graph, 4).assignment
        proc = ParallelMPGPPartitioner(context=ExecutionContext(
            "process", 2)).partition(graph, 4).assignment
        np.testing.assert_array_equal(serial, proc)

    def test_from_config_carries_execution(self):
        context = ExecutionContext("process", 3)
        par = ParallelMPGPPartitioner.from_config(
            PartitionConfig(context=context))
        assert par.context is context


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
            ExecutionContext("threads")
        with pytest.raises(ValueError, match="workers"):
            ExecutionContext(workers=-1)
        for config in (WalkConfig, TrainConfig, PartitionConfig):
            with pytest.raises(ValueError, match="execution"):
                config(context=ExecutionContext("gpu"))

    @pytest.mark.parametrize("workers", (2.5, 2.0, True, "2"))
    def test_workers_must_be_a_non_negative_integer(self, workers):
        """Checked once, at construction -- not as a TypeError from inside
        multiprocessing after the partitioner already ran."""
        with pytest.raises(ValueError, match="workers"):
            ExecutionContext("process", workers)

    def test_embed_graph_rejects_fractional_workers_up_front(self, monkeypatch):
        from repro import embed_graph
        from repro.partition.mpgp import MPGPPartitioner

        def never(*args, **kwargs):
            raise AssertionError("partitioned before the knob was checked")

        monkeypatch.setattr(MPGPPartitioner, "partition", never)
        with pytest.raises(ValueError, match="workers"):
            embed_graph(graph_family("undirected"), execution="process",
                        workers=2.5)

    @pytest.mark.parametrize("variable,value,match", [
        ("REPRO_EXECUTION", "proc", "execution 'proc' \\(from REPRO_EXECUTION"),
        ("REPRO_WORKERS", "abc", "'abc' \\(from REPRO_WORKERS\\)"),
        ("REPRO_WORKERS", "-3", "-3 \\(from REPRO_WORKERS\\)"),
        ("REPRO_BACKING", "tmpfs", "'tmpfs' \\(from REPRO_BACKING\\)"),
    ])
    def test_environment_errors_name_their_variable(self, monkeypatch,
                                                    variable, value, match):
        monkeypatch.setenv(variable, value)
        with pytest.raises(ValueError, match=match):
            ExecutionContext()
        with pytest.raises(ValueError, match=match):
            WalkConfig()

    def test_explicit_values_beat_the_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTION", "proc")
        monkeypatch.setenv("REPRO_WORKERS", "abc")
        context = ExecutionContext("serial", 1, "shm", "/tmp/x")
        assert (context.execution, context.workers) == ("serial", 1)
        monkeypatch.setenv("REPRO_SPILL_DIR", "/tmp/spill-root")
        monkeypatch.setenv("REPRO_EXECUTION", "pipeline")
        monkeypatch.setenv("REPRO_WORKERS", "3")
        monkeypatch.setenv("REPRO_BACKING", "mmap")
        assert ExecutionContext(workers=1) == ExecutionContext(
            "pipeline", 1, "mmap", "/tmp/spill-root")

    def test_context_is_frozen_and_travels_by_pickle(self):
        context = ExecutionContext("pipeline", 2, "mmap", "/tmp/x")
        with pytest.raises(AttributeError):
            context.workers = 3
        assert pickle.loads(pickle.dumps(context)) == context

    @pytest.mark.parametrize("field,value", [
        ("execution", "process"), ("workers", 2), ("backing", "mmap"),
        ("spill_dir", "/tmp/x")])
    def test_removed_config_fields_raise_type_error(self, field, value):
        from repro.partition.mpgp import MPGPPartitioner

        for config in (WalkConfig, TrainConfig, PartitionConfig,
                       MPGPPartitioner, ParallelMPGPPartitioner):
            with pytest.raises(TypeError, match=field):
                config(**{field: value})

    @pytest.mark.parametrize("execution", ("serial", "process", "pipeline"))
    def test_fullpath_keeps_the_context_execution(self, execution):
        """HuGE-D's fullpath runs on the one round engine, so it runs
        wherever the context says -- no mode-specific degrade."""
        context = ExecutionContext(execution)
        engine = DistributedWalkEngine(
            graph_family("undirected"),
            Cluster(1, np.zeros(150, dtype=np.int64)),
            WalkConfig.huge_d(context=context))
        assert engine.execution == execution

    def test_pipeline_execution_resolution(self):
        """Pipeline overlaps partitioning with sampling whatever the walk
        mode, and trains on the process slice path (the trainer is the
        streaming consumer, not a producer)."""
        pipeline = ExecutionContext("pipeline", 1)
        assert pipeline.overlaps_partition()
        assert not ExecutionContext("process").overlaps_partition()
        assert pipeline.fans_out(2) and not pipeline.fans_out(1)
        assert not ExecutionContext("serial").fans_out(4)
        walks, cluster = run_walks(graph_family("undirected"), "serial")
        for context, pooled in ((ExecutionContext("serial"), False),
                                (pipeline, True)):
            result = DistributedTrainer(
                walks.corpus, cluster,
                TrainConfig(dim=4, epochs=1, context=context)).train()
            # Only the worker-pool slice trainer ships task messages.
            assert ("ipc_rounds" in result.extras) == pooled

    def test_systems_share_one_context_across_phases(self):
        from repro.systems import DistGER, HuGED, KnightKing

        context = ExecutionContext("process", 2)
        for system in (DistGER(context=context), HuGED(context=context),
                       KnightKing(context=context)):
            assert system.walk_config.context is context
            assert system.train_config.context is context

    def test_systems_lift_context_names_from_overrides(self):
        """The four names may ride in any phase override dict; they build
        the one context, and two dicts that disagree are refused."""
        from repro.systems import DistGER, KnightKing

        overrides = {"execution": "pipeline", "workers": 2}
        system = DistGER(walk_overrides=dict(overrides, min_rounds=2),
                         train_overrides=dict(overrides),
                         partition_overrides=dict(overrides))
        assert system.walk_config.context == ExecutionContext("pipeline", 2)
        assert system.train_config.context is system.walk_config.context
        assert system.walk_config.min_rounds == 2
        with pytest.raises(ValueError, match="disagree on execution"):
            DistGER(walk_overrides={"execution": "serial"},
                    train_overrides={"execution": "process"})
        with pytest.raises(ValueError, match="workers"):
            KnightKing(walk_overrides={"workers": 3},
                       context=ExecutionContext(workers=2))

    def test_embed_graph_builds_one_context(self):
        from repro.api import _route_overrides

        kwargs = _route_overrides("distger", {"execution": "process",
                                              "workers": 2, "mu": 0.9})
        assert kwargs["context"] == ExecutionContext("process", 2)
        assert "execution" not in kwargs.get("walk_overrides", {})
        with pytest.raises(ValueError, match="context"):
            _route_overrides("distger", {"workers": 2,
                                         "context": ExecutionContext()})

    def test_partition_join_requires_pipeline_execution(self):
        graph = graph_family("undirected")
        part = WorkloadBalancePartitioner().partition(graph, 2)
        cluster = Cluster(2, part.assignment, seed=1)
        engine = DistributedWalkEngine(
            graph, cluster, WalkConfig.distger(
                max_rounds=1, min_rounds=1,
                context=ExecutionContext("serial")))
        with pytest.raises(ValueError, match="partition_join"):
            engine.run(partition_join=lambda: part.assignment)

    def test_worker_count_resolution(self):
        assert ExecutionContext(workers=3).pool_size == 3
        assert ExecutionContext(workers=0).pool_size >= 1
        with pytest.raises(ValueError, match="workers"):
            ExecutionContext(workers=-2)

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
        assert WalkConfig().context.execution == "process"
        assert TrainConfig().context.workers == 2
        assert PartitionConfig().context == ExecutionContext("process", 2)
