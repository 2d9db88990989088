"""Streaming dataflow for ``execution="pipeline"`` (walk→train overlap).

``execution="process"`` runs the three pipeline phases behind hard
barriers: partition, then every walk round (sample on workers, flush in
the parent), then training.  Real DistGER's headline system win is
*overlapping* these stages -- walks stream to the
trainer as they are produced (Fang et al., VLDB 2023 §5) -- and this
module is the reproduction's equivalent: a streaming coordinator built on
two facts the counter-based RNG protocols already guarantee:

* **Walk corpora never depend on the node placement.**  Walker streams
  are keyed by ``(walk seed root, walk_id)`` only, so the partitioner can
  run concurrently with sampling on its own worker
  (:class:`~repro.runtime.executor.AsyncPartition`) and join exactly
  where the placement is first consumed: metric attribution and
  sub-corpus shard construction.

* **Metrics are a pure function of the sampled steps.**  Vectorized
  walks record each step's arc and trial count instead of metric
  increments (:meth:`BatchWalkRunner.run_walks`, in-process and on
  workers alike),
  and :class:`~repro.walks.vectorized.DeferredWalkAccounting` credits
  trials, steps, compute units and per-pair message traffic once the
  assignment is known -- so under ``"pipeline"`` it simply waits for the
  partition join, and every executor lands on the same counters.

Within the walk phase, the bounded round queue of
:class:`~repro.runtime.executor.StreamingWalkRunner` (at
:data:`~repro.runtime.executor.PIPELINE_DEPTH` rounds in flight) keeps
workers sampling round ``k+1`` while the parent flushes round ``k`` into
the flat corpus; rounds sampled speculatively past a KL stop are
discarded without a trace.  The training phase consumes the finished
block through the same shared-memory slice descriptors as
``execution="process"``; it starts at the
:class:`repro.walks.corpus.CorpusFeed` *finished* event (the
frequency-ordered vocabulary and unigram negative table are global
corpus statistics, so that is the earliest point slice training may
start without changing a byte -- see docs/ARCHITECTURE.md for the
dependency analysis).

The result is byte-identical to ``execution="process"`` and
``"serial"`` -- corpora, stats, metrics, assignments and embeddings --
with wall-clock improvements from partition/sampling overlap and
flush/sampling overlap (``benchmarks/bench_fig5_pipeline_overlap.py``
gates the end-to-end speedup; ``tests/test_runtime_executor_parity.py``
pins the bytes).

``backing="mmap"`` composes orthogonally with the overlap: the walk
engine spills the corpus before the first round, so every streamed
flush drains into the file-backed block and its pages are dropped from
the parent's residency; the runners' shared groups (CSR, kernel tables)
spill the same way.  The backing is a pure transport choice -- nothing
in the dataflow above observes it, so the byte-parity argument is
unchanged (``tests/test_ooc_backing.py`` pins pipeline×mmap against
serial×shm).
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from repro.runtime.executor import run_partition_async
from repro.utils.timer import Timer

__all__ = ["run_pipelined_sampling"]


def run_pipelined_sampling(graph, partitioner, num_machines: int,
                           walk_config, cluster_seed,
                           timer: Optional[Timer] = None):
    """Run partition ∥ walk sampling as one overlapped dataflow.

    The system-level entry point behind ``execution="pipeline"``
    (:class:`repro.systems.walk_systems.RandomWalkSystem`): the
    partitioner runs on its own worker process while the walk engine
    streams rounds through the bounded queue; the partition is joined
    after the last flush, where the placement is first needed (metric
    attribution, ``walk_machines``).  Returns ``(partition, cluster,
    walk_result)`` -- byte-identical to the phased
    ``partition → Cluster → engine.run()`` sequence.

    Timer attribution keeps ``timer.total`` equal to real wall time
    despite the overlap: ``"sampling"`` covers the streamed span and
    ``"partition"`` only the non-overlapped remainder (the join wait);
    the partitioner's own wall time is still reported in
    ``PartitionResult.seconds``.
    """
    from repro.runtime.cluster import Cluster
    from repro.walks.engine import DistributedWalkEngine

    async_part = run_partition_async(partitioner, graph, num_machines)
    outcome = {}
    join_wait = [0.0]

    def partition_join() -> np.ndarray:
        wait_start = time.perf_counter()
        result = async_part.result()
        join_wait[0] = time.perf_counter() - wait_start
        outcome["partition"] = result
        return np.asarray(result.assignment, dtype=np.int64)

    try:
        # The placeholder assignment is never consulted: walker streams
        # derive from the seed alone, and the engine installs the joined
        # partition before anything placement-dependent runs.
        cluster = Cluster(num_machines,
                          np.zeros(graph.num_nodes, dtype=np.int64),
                          seed=cluster_seed)
        engine = DistributedWalkEngine(graph, cluster, walk_config)
        span_start = time.perf_counter()
        walk_result = engine.run(partition_join=partition_join)
        span = time.perf_counter() - span_start
    finally:
        async_part.close()
    if timer is not None:
        timer.add("partition", join_wait[0])
        timer.add("sampling", max(0.0, span - join_wait[0]))
    return outcome["partition"], cluster, walk_result
