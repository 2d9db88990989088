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

* **Metrics are a pure function of the sampled paths.**  Walk workers
  record per-step trial counts instead of metric increments
  (:meth:`BatchWalkRunner.run_walks` deferred accounting, under
  ``"process"`` as well -- it is the same runner at depth 1), and
  :class:`DeferredWalkAccounting` reconstructs trials, steps, compute
  units and per-pair message traffic bit-for-bit once the assignment
  arrives -- every increment is an integer-valued float, so the late,
  batched reconstruction lands on the serial counters exactly.

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
from typing import Optional, Tuple

import numpy as np

from repro.runtime.executor import run_partition_async
from repro.utils.timer import Timer

__all__ = [
    "DeferredWalkAccounting",
    "run_pipelined_sampling",
]


class DeferredWalkAccounting:
    """Exact walk-phase accounting reconstructed after the fact.

    The in-loop accounting of :meth:`BatchWalkRunner.run_walks` credits,
    at the machine a walker currently occupies: one compute unit per
    sampling trial, one local step (plus one InCoM measurement unit in
    the information-oriented modes) per accepted step, and one
    ``message_bytes``-sized message per machine-crossing step.  All of it
    is determined by *which node* each trial/step happened at and *which
    arc* each step traversed -- so this class aggregates rounds into three
    placement-free arrays (trials per node, steps per node, traversals
    per stored arc) and maps them onto machines in one pass once the
    assignment is known.  Every counter is an integer-valued float, so
    the batched late application equals the serial increment-by-increment
    accounting bit for bit (pinned by the pipeline parity suite).
    """

    def __init__(self, graph, info_mode: bool, message_bytes: int) -> None:
        self._graph = graph
        self.info_mode = info_mode
        self.message_bytes = int(message_bytes)
        self._trials_at_node = np.zeros(graph.num_nodes, dtype=np.int64)
        self._steps_at_node = np.zeros(graph.num_nodes, dtype=np.int64)
        self._arc_traversals = np.zeros(graph.num_stored_edges,
                                        dtype=np.int64)
        # Stored arc (u, v) packed as u·n + v: rows are sorted, so the
        # keys ascend with the flat arc index and one binary search per
        # *distinct* traversed arc finds it.
        self._arc_keys = graph.indices + graph.num_nodes * np.repeat(
            np.arange(graph.num_nodes, dtype=np.int64), graph.degrees)

    def observe_round(self, paths: np.ndarray, lengths: np.ndarray,
                      trials: np.ndarray) -> Tuple[int, int]:
        """Fold one round's buffers in; returns ``(trials, steps)`` totals.

        ``paths``/``lengths``/``trials`` are the round-slot buffers of
        :class:`~repro.runtime.executor.StreamingWalkRunner`: step ``s`` of
        walk ``i`` moved from ``paths[i, s-1]`` to ``paths[i, s]`` and cost
        ``trials[i, s]`` sampling trials at the former node.
        """
        n, cap = paths.shape
        if n == 0 or cap <= 1:
            return 0, 0
        # Positions 1..len-1 of every walk: the step that filled them.
        valid = np.arange(1, cap)[None, :] < lengths[:, None]
        prev = paths[:, :-1][valid]
        if prev.size == 0:
            return 0, 0
        nxt = paths[:, 1:][valid]
        step_trials = trials[:, 1:][valid].astype(np.int64)
        num_nodes = self._graph.num_nodes
        self._trials_at_node += np.bincount(
            prev, weights=step_trials, minlength=num_nodes).astype(np.int64)
        self._steps_at_node += np.bincount(prev, minlength=num_nodes)
        # Sort the packed (prev, nxt) keys, count each run, and look only
        # the distinct keys up among the stored arcs -- ascending queries
        # into an ascending table, instead of one bisection per step.
        traversed, counts = np.unique(prev * num_nodes + nxt,
                                      return_counts=True)
        self._arc_traversals[
            np.searchsorted(self._arc_keys, traversed)] += counts
        return int(step_trials.sum()), int(prev.size)

    def apply(self, assignment: np.ndarray, metrics) -> None:
        """Credit everything observed so far against ``assignment``."""
        m = metrics.num_machines
        trials_m = np.bincount(assignment, weights=self._trials_at_node,
                               minlength=m)
        steps_m = np.bincount(assignment, weights=self._steps_at_node,
                              minlength=m)
        for machine in np.flatnonzero(trials_m):
            # One compute unit per sampling trial.
            metrics.record_compute(int(machine), float(trials_m[machine]))
        for machine in np.flatnonzero(steps_m):
            metrics.record_local_step(int(machine), int(steps_m[machine]))
            if self.info_mode:
                # InCoM measurement cost: O(1) per accepted step.
                metrics.record_compute(int(machine), float(steps_m[machine]))
        graph = self._graph
        u_of_arc = np.repeat(np.arange(graph.num_nodes, dtype=np.int64),
                             graph.degrees)
        src = assignment[u_of_arc]
        dst = assignment[graph.indices]
        crossing = (src != dst) & (self._arc_traversals > 0)
        if crossing.any():
            pair = src[crossing] * m + dst[crossing]
            counts = np.bincount(pair,
                                 weights=self._arc_traversals[crossing],
                                 minlength=m * m)
            for p in np.flatnonzero(counts):
                c = int(counts[p])
                metrics.record_messages(c, c * self.message_bytes,
                                        src=int(p // m), dst=int(p % m))


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
