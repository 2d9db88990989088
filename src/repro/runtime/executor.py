"""Process-parallel execution runtime (``execution="process"``/``"pipeline"``).

The simulated :class:`~repro.runtime.cluster.Cluster` counts work; this
module makes the three pipeline phases *actually* run on multiple OS
processes.  The enabling property is the counter-based RNG protocols of
PRs 1-2: every random draw is a pure function of ``(stream key, counter)``,
so results cannot depend on how work is scheduled -- which means the
process executors must reproduce serial execution **bit for bit** (the
contract ``tests/test_runtime_executor_parity.py`` enforces, mirroring how
KnightKing-style BSP engines are validated).

Where work runs is one :class:`ExecutionContext` per run -- execution
mode, worker count, backing and spill root, resolved once from explicit
values and ``REPRO_*`` defaults -- which every phase config carries and
whose methods hold the per-phase policy.  Three phase executors live
here:

* **Walks** -- :class:`StreamingWalkRunner` splits a round's walkers
  across workers.  Walkers are independent under the counter-stream
  protocol, so each worker advances its slice through the same lock-step
  :class:`~repro.walks.vectorized.BatchWalkRunner` supersteps and writes
  paths and per-step trials and arcs straight into a shared-memory round
  slot; the parent consumes the slots in the same round loop as an
  in-process round -- flush in walk-id order (the canonical corpus
  order), credit stats and cluster metrics from the buffers
  (:class:`repro.walks.vectorized.DeferredWalkAccounting`).
  One round in flight is ``execution="process"`` (a barrier per round);
  :data:`PIPELINE_DEPTH` rounds in flight is ``"pipeline"``, sampling
  ahead of the parent's flush.

* **Training** -- :class:`ProcessSliceTrainer` runs each machine's
  sync-period slice on a worker against replica matrices living in shared
  memory.  Within a sync period the ``m`` machines' slices touch disjoint
  replicas (they only interact at the parent-side sync), so running them
  concurrently is a pure reordering of independent float work; negative
  draws stay deterministic because each machine's
  :class:`~repro.utils.rng.CounterStream` counter is threaded through the
  task messages.  Every worker holds the same
  :class:`~repro.embedding.trainer.SliceTrainer` the serial trainer
  runs in-process, built over shared memory: the flat corpus (token
  block + offsets), the per-machine shard index arrays and the
  subsampling keep probabilities are shared once at construction, and a
  sync round is one task per worker carrying its share of the
  ``(machine, lo, hi, lr)`` **slice descriptors** -- the walk data
  itself never travels.

* **Partitioning** -- :func:`run_partition_segments` partitions
  parallel-MPGP's independent stream segments on workers; the (sequential)
  merge stays in the parent.

:class:`AsyncPartition` (a partitioner on its own worker, joined where
the placement is first consumed) is the other building block of
``execution="pipeline"``; :mod:`repro.runtime.pipeline` composes it with
the walk runner into the overlapped dataflow.

Shared-memory plumbing (:class:`SharedArray` / CSR helpers) is exposed for
reuse; handles are picklable and survive round trips to worker processes
(property-tested in the parity suite).
"""

from __future__ import annotations

import contextlib
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro import native
from repro.utils.sharedmem import (
    BACKING_CHOICES,
    SharedArray,
    SharedArrayHandle,
    SharedGroup as _SharedGroup,
    attach_shared_array,
    detach_shared_array,
)

__all__ = [
    "BACKING_CHOICES",
    "CONTEXT_FIELDS",
    "EXECUTION_CHOICES",
    "PIPELINE_DEPTH",
    "AsyncPartition",
    "ExecutionContext",
    "ProcessExecutor",
    "ProcessSliceTrainer",
    "SharedArray",
    "SharedArrayHandle",
    "StreamingWalkRunner",
    "attach_shared_array",
    "detach_shared_array",
    "run_partition_async",
    "run_partition_segments",
]

#: Accepted values of :attr:`ExecutionContext.execution`.
#: ``"pipeline"`` is the streaming superset of ``"process"``: the same
#: worker pools, plus overlap between phases (partition || sampling) and
#: within the walk phase (round k+1 samples while round k flushes) --
#: byte-identical results either way.
EXECUTION_CHOICES = ("serial", "process", "pipeline")

#: In-flight walk rounds under ``execution="pipeline"`` (``"process"``
#: runs 1).  Double buffering: workers sample round ``k+1`` while the
#: parent flushes round ``k``.  Each in-flight round owns one shared
#: path/length/trial buffer set, so the depth bounds both speculation
#: waste past a KL stop and resident memory.
PIPELINE_DEPTH = 2

#: Each context field's environment variable and built-in default.  This
#: table is the only place the library reads these variables.
_ENVIRONMENT = {
    "execution": ("REPRO_EXECUTION", "serial"),
    "workers": ("REPRO_WORKERS", 0),
    "backing": ("REPRO_BACKING", "shm"),
    "spill_dir": ("REPRO_SPILL_DIR", None),
}

#: The context's field names -- what ``embed_graph``, the systems and the
#: CLI accept as flat execution values.
CONTEXT_FIELDS = tuple(_ENVIRONMENT)


def _check_field(name: str, value, source: str):
    """Validate one context field; ``source`` names where it came from."""
    if name == "execution" and value not in EXECUTION_CHOICES:
        raise ValueError(f"unknown execution {value!r}{source}; options: "
                         f"{'/'.join(EXECUTION_CHOICES)}")
    if name == "backing" and value not in BACKING_CHOICES:
        raise ValueError(f"backing must be one of {BACKING_CHOICES}, got "
                         f"{value!r}{source}")
    if name == "workers":
        if source:
            with contextlib.suppress(ValueError):
                value = int(value)
        if isinstance(value, bool) or not isinstance(
                value, numbers.Integral) or value < 0:
            raise ValueError(f"workers must be a non-negative integer, got "
                             f"{value!r}{source}")
        value = int(value)
    if name == "spill_dir" and value is not None:
        value = os.fspath(value) or None
    return value


@dataclass(frozen=True)
class ExecutionContext:
    """Where one run's work executes -- resolved once, carried by every
    phase.

    ``execution`` (``"serial"`` | ``"process"`` | ``"pipeline"``) picks
    in-process work, worker pools behind per-phase barriers, or the
    streaming dataflow; ``workers`` sizes the pools (0 = auto);
    ``backing`` (``"shm"`` | ``"mmap"``) and ``spill_dir`` say where the
    shared read-only blocks live.  A field left ``None`` takes its
    ``REPRO_*`` environment default (built-in default when unset), then
    everything is validated -- so a bad value fails at construction,
    naming the variable it came from, not inside a worker pool.

    :class:`~repro.walks.engine.WalkConfig`,
    :class:`~repro.embedding.model.TrainConfig` and
    :class:`~repro.partition.base.PartitionConfig` each hold one; the
    systems hand the *same* context to all three.  The per-phase policy
    lives here: :meth:`slice_trainer`, :meth:`fans_out` and
    :meth:`overlaps_partition`.  Every choice is
    byte-identical to serial execution; the context trades wall-clock
    and residency only.
    """

    execution: Optional[str] = None
    workers: Optional[int] = None
    backing: Optional[str] = None
    spill_dir: Optional[str] = None

    def __post_init__(self) -> None:
        for name, (variable, builtin) in _ENVIRONMENT.items():
            value, source = getattr(self, name), ""
            if value is None:
                value = os.environ.get(variable) or builtin
                if value is not builtin:
                    source = f" (from {variable})"
            object.__setattr__(self, name, _check_field(name, value, source))

    @property
    def pool_size(self) -> int:
        """Worker processes a pool starts: ``workers``, or for 0 (auto)
        ``min(4, cpu_count)`` -- beyond 4 the parent's per-round merge
        dominates at the graph sizes this reproduction targets."""
        if self.workers > 0:
            return self.workers
        return max(1, min(4, os.cpu_count() or 1))

    def overlaps_partition(self) -> bool:
        """Whether the system runs partitioning concurrently with walk
        sampling (:func:`repro.runtime.pipeline.run_pipelined_sampling`)."""
        return self.execution == "pipeline"

    def fans_out(self, tasks: int) -> bool:
        """Whether ``tasks`` independent tasks (parallel-MPGP segments)
        run on a worker pool."""
        return self.execution != "serial" and tasks > 1

    def shared_group(self) -> _SharedGroup:
        """An owner-side group of shared blocks under this backing."""
        return _SharedGroup(backing=self.backing, spill_dir=self.spill_dir)

    def slice_trainer(self, replicas, config, learner_name: str,
                      neg_keys, anchor, corpus,
                      shards: Sequence[np.ndarray],
                      keep: Optional[np.ndarray]):
        """The training phase's slice executor.

        Serial runs train in-process
        (:class:`~repro.embedding.trainer.SliceTrainer`); ``"process"``
        and ``"pipeline"`` both get a :class:`ProcessSliceTrainer` --
        under ``"pipeline"`` the trainer is the streaming *consumer*: the
        frequency-ordered vocabulary and the negative table are global
        corpus statistics, so no slice can train before the corpus is
        final without changing bytes.  Both share one surface:
        ``train_round`` / ``ipc_stats`` / ``close``.
        """
        if self.execution == "serial":
            from repro.embedding.trainer import SliceTrainer

            return SliceTrainer(replicas, config, learner_name, neg_keys,
                                anchor, corpus.tokens, corpus.offsets,
                                shards, keep)
        return ProcessSliceTrainer(replicas, config, learner_name, neg_keys,
                                   anchor, corpus, shards, keep)


# --------------------------------------------------------------------- #
# Shared-memory ndarrays
# --------------------------------------------------------------------- #

# The shared-ndarray plumbing lives in :mod:`repro.utils.sharedmem` (it
# also backs the serving layer's embedding store, with a file-backed mmap
# mode); the executor re-exports the names above for its callers.


class SharedCSRHandle(NamedTuple):
    """Picklable descriptor of a CSR graph living in shared memory."""

    indptr: SharedArrayHandle
    indices: SharedArrayHandle
    weights: Optional[SharedArrayHandle]
    directed: bool


def share_graph(group: _SharedGroup, graph) -> SharedCSRHandle:
    """Copy ``graph``'s CSR arrays into ``group``'s shared segments."""
    return SharedCSRHandle(
        indptr=group.share(graph.indptr),
        indices=group.share(graph.indices),
        weights=(None if graph.weights is None
                 else group.share(graph.weights)),
        directed=graph.directed,
    )


def attach_graph(handle: SharedCSRHandle):
    """Rebuild a :class:`~repro.graph.csr.CSRGraph` over shared buffers."""
    from repro.graph.csr import CSRGraph

    weights = (None if handle.weights is None
               else attach_shared_array(handle.weights))
    return CSRGraph(attach_shared_array(handle.indptr),
                    attach_shared_array(handle.indices),
                    weights, directed=handle.directed)


# --------------------------------------------------------------------- #
# Pool wrapper
# --------------------------------------------------------------------- #


class ProcessExecutor:
    """A :class:`ProcessPoolExecutor` with fail-fast batch semantics.

    ``run`` submits one task per argument tuple and gathers results in
    task order.  The first worker exception (including a hard worker death
    surfacing as ``BrokenProcessPool``) cancels the remaining tasks, shuts
    the pool down and re-raises in the parent -- no deadlock, no orphaned
    workers; the crash-safety tests pin this down.
    """

    def __init__(self, workers: int, initializer: Optional[Callable] = None,
                 initargs: Tuple = ()) -> None:
        self.workers = workers
        self._pool: Optional[ProcessPoolExecutor] = ProcessPoolExecutor(
            max_workers=workers, initializer=initializer, initargs=initargs)

    def run(self, fn: Callable, tasks: Sequence[Tuple]) -> List:
        """Run ``fn(*task)`` for every task; results in task order."""
        if self._pool is None:
            raise RuntimeError("executor already shut down")
        futures = [self._pool.submit(fn, *task) for task in tasks]
        try:
            return [future.result() for future in futures]
        except BaseException:
            for future in futures:
                future.cancel()
            self.shutdown()
            raise

    def submit(self, fn: Callable, *args):
        """Submit one task, returning its future (request/response use).

        Unlike :meth:`run`, a failing task does **not** tear the pool
        down -- the exception surfaces from ``future.result()`` and the
        pool keeps serving (the serving front end's per-request error
        semantics).  Hard worker deaths still poison the pool and
        surface as ``BrokenProcessPool``.
        """
        if self._pool is None:
            raise RuntimeError("executor already shut down")
        return self._pool.submit(fn, *args)

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def __enter__(self) -> "ProcessExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


def split_ranges(n: int, parts: int) -> List[Tuple[int, int]]:
    """Contiguous ``[lo, hi)`` ranges covering ``n`` items, near-equal."""
    bounds = np.linspace(0, n, min(n, max(1, parts)) + 1).astype(np.int64)
    return [(int(bounds[i]), int(bounds[i + 1]))
            for i in range(bounds.size - 1)
            if bounds[i + 1] > bounds[i]]


# --------------------------------------------------------------------- #
# Walk phase
# --------------------------------------------------------------------- #

#: Per-worker state installed by the pool initializers (one phase per pool).
_WORKER_STATE: Dict[str, object] = {}


def _walk_worker_init(graph_handle, walk_seed_root, config, sources_handle,
                      slot_handles, table_handles) -> None:
    from repro.walks.kernels import make_kernel
    from repro.walks.vectorized import BatchWalkRunner, WalkBuffers

    # The kernel adopts the parent's shared tables as they are, so no
    # worker pays a table build.  The runner never consults the node
    # placement (the partitioner may still be running): the parent
    # credits the slots' trials and arcs.
    graph = attach_graph(graph_handle)
    tables = {key: attach_shared_array(handle)
              for key, handle in table_handles.items()}
    _WORKER_STATE["walk_runner"] = BatchWalkRunner(
        graph, walk_seed_root, config, make_kernel(config, graph, tables))
    _WORKER_STATE["walk_sources"] = attach_shared_array(sources_handle)
    _WORKER_STATE["walk_slots"] = [
        WalkBuffers(*(attach_shared_array(handle) for handle in slot))
        for slot in slot_handles
    ]


def _walk_round_task(round_idx: int, lo: int, hi: int, n_total: int,
                     slot: int) -> int:
    walk_ids = round_idx * n_total + np.arange(lo, hi, dtype=np.int64)
    _WORKER_STATE["walk_runner"].run_walks(
        _WORKER_STATE["walk_sources"][lo:hi], walk_ids,
        _WORKER_STATE["walk_slots"][slot].rows(lo, hi))
    return slot


class StreamingWalkRunner:
    """Bounded-queue walk producer fanning rounds across worker processes.

    The graph CSR, walk sources, kernel tables and a ring of ``depth``
    round slots (:class:`~repro.walks.vectorized.WalkBuffers`) all live
    in shared memory; per round only the slice coordinates travel to the
    workers.  Up to ``depth`` rounds are in flight at once: the parent
    consumes completed rounds strictly in round order
    (:meth:`next_round`), flushes them into the corpus, and recycles each
    slot with :meth:`release_round` -- which is what admits the next
    round.  At ``depth=1`` that is a barrier per round
    (``execution="process"``); deeper, a slow consumer exerts
    backpressure and a fast one keeps every worker busy while it flushes
    (``execution="pipeline"``).

    Walks are pure functions of ``(walk_seed_root, walk_id)`` under the
    counter-stream protocol, so rounds sampled speculatively past a KL stop
    are simply discarded without leaving a trace, and no round's bytes
    depend on how far ahead the producer ran.  Workers fill the slots
    through :meth:`BatchWalkRunner.run_walks`, per-step trials and arcs
    included, and the parent credits stats and cluster metrics from them
    (:class:`repro.walks.vectorized.DeferredWalkAccounting`) exactly as
    for an in-process round -- so the producer never needs the node
    assignment, freeing the partitioner to run concurrently.

    Failure semantics match the executor contract: the first worker
    exception surfaces from :meth:`next_round`, cancels everything in
    flight and releases the pool and shared segments.
    """

    def __init__(self, graph, walk_seed_root: int, config, kernel,
                 sources: np.ndarray, max_rounds: int,
                 depth: int = PIPELINE_DEPTH) -> None:
        from repro.walks.vectorized import WalkBuffers

        self.workers = config.context.pool_size
        n = int(sources.size)
        self._n = n
        self._max_rounds = int(max_rounds)
        self.depth = max(1, min(depth, self._max_rounds))
        cap = config.max_length if config.mode != "routine" else \
            config.walk_length
        self._group = config.context.shared_group()
        self._pool: Optional[ProcessPoolExecutor] = None
        try:
            graph_handle = share_graph(self._group, graph)
            sources_handle = self._group.share(
                np.asarray(sources, dtype=np.int64))
            slots = [WalkBuffers.allocate(n, cap, self._group.empty)
                     for _ in range(self.depth)]
            self._slots = [WalkBuffers(*(buffer.array for buffer in slot))
                           for slot in slots]
            slot_handles = [tuple(buffer.handle for buffer in slot)
                            for slot in slots]
            tables = {key: self._group.share(table)
                      for key, table in kernel.tables.items()}
            native.load()    # resolved here, so the forked workers inherit it
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_walk_worker_init,
                initargs=(graph_handle, walk_seed_root, config,
                          sources_handle, slot_handles, tables))
            self._ranges = split_ranges(n, self.workers)
            self._futures: Dict[int, List] = {}
            self._next_submit = 0
            self._next_consume = 0
            for _ in range(self.depth):
                self._submit_next()
        except BaseException:
            self.close()
            raise

    def _submit_next(self) -> None:
        if self._next_submit >= self._max_rounds or self._pool is None:
            return
        r = self._next_submit
        slot = r % self.depth
        self._futures[r] = [
            self._pool.submit(_walk_round_task, r, lo, hi, self._n, slot)
            for lo, hi in self._ranges
        ]
        self._next_submit += 1

    def next_round(self):
        """Block until the next in-order round is resident.

        Returns the round slot's :class:`WalkBuffers`; they stay valid
        until :meth:`release_round` recycles the slot (the corpus flush
        compacts out of them, so nothing aliases past that).
        """
        r = self._next_consume
        if r >= self._max_rounds:
            raise RuntimeError(
                f"all {self._max_rounds} rounds already consumed")
        futures = self._futures.pop(r)
        try:
            for future in futures:
                future.result()
        except BaseException:
            self.close()
            raise
        self._next_consume += 1
        return self._slots[r % self.depth]

    def release_round(self) -> None:
        """Recycle the last consumed round's slot (admits the next round)."""
        self._submit_next()

    def close(self) -> None:
        """Cancel in-flight rounds, shut the pool down, free the buffers."""
        if self._pool is not None:
            for futures in getattr(self, "_futures", {}).values():
                for future in futures:
                    future.cancel()
            self._futures = {}
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
        # No view of a slot may outlive its segment.
        self._slots = []
        self._group.close()

    def __enter__(self) -> "StreamingWalkRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# --------------------------------------------------------------------- #
# Partition phase, asynchronous (pipeline overlap)
# --------------------------------------------------------------------- #


def _partition_child(conn, partitioner, graph, num_parts: int) -> None:
    try:
        conn.send((True, partitioner.partition(graph, num_parts)))
    except BaseException as exc:  # propagate to the parent's result()
        conn.send((False, exc))
    finally:
        conn.close()


class AsyncPartition:
    """A partitioner running on one worker process, joined later.

    Partition assignments are pure functions of ``(graph, partitioner
    config, seed)`` -- and walk corpora are pure functions of the walk
    seed root, never of the placement -- so the pipeline executor runs
    partitioning concurrently with walk sampling and joins the result
    only where the placement is first consumed (metric attribution and
    sub-corpus shards).  ``result()`` returns the exact
    :class:`~repro.partition.base.PartitionResult` a serial call would
    have produced, then releases the worker.

    Built on a raw ``multiprocessing.Process`` (not a pool) so that
    abandoning the join -- :meth:`close` on an error elsewhere in the
    pipeline -- can *terminate* a mid-run partition instead of letting
    an orphaned worker keep computing and block interpreter exit.
    """

    def __init__(self, partitioner, graph, num_parts: int) -> None:
        import multiprocessing

        ctx = multiprocessing.get_context()
        self._recv, send = ctx.Pipe(duplex=False)
        self._proc: Optional[object] = ctx.Process(
            target=_partition_child, args=(send, partitioner, graph,
                                           num_parts), daemon=True)
        self._proc.start()
        send.close()

    def result(self):
        """Block until the partition is done; returns the PartitionResult."""
        if self._proc is None:
            raise RuntimeError("partition worker already released")
        try:
            try:
                ok, payload = self._recv.recv()
            except EOFError:
                raise RuntimeError(
                    "partition worker died without producing a result")
        finally:
            self.close()
        if not ok:
            raise payload
        return payload

    def close(self) -> None:
        """Release the worker; terminates it if the partition still runs."""
        if self._proc is not None:
            if self._proc.is_alive():
                self._proc.terminate()
            self._proc.join()
            self._recv.close()
            self._proc = None


def run_partition_async(partitioner, graph, num_parts: int) -> AsyncPartition:
    """Start ``partitioner.partition(graph, num_parts)`` on a worker."""
    return AsyncPartition(partitioner, graph, num_parts)


# --------------------------------------------------------------------- #
# Training phase
# --------------------------------------------------------------------- #


def _train_worker_init(phi_in_handle, phi_out_handle, vocab, config,
                       learner_name, neg_keys, anchor_spec,
                       corpus_handles, keep_handle) -> None:
    """Build this worker's :class:`~repro.embedding.trainer.SliceTrainer`
    -- the serial trainer's, over the shared attachment."""
    from repro.embedding.anchor import RowAnchor
    from repro.embedding.model import EmbeddingModel
    from repro.embedding.trainer import SliceTrainer

    phi_in = attach_shared_array(phi_in_handle)
    phi_out = attach_shared_array(phi_out_handle)
    models = []
    for machine in range(phi_in.shape[0]):
        model = EmbeddingModel.__new__(EmbeddingModel)
        model.phi_in = phi_in[machine]
        model.phi_out = phi_out[machine]
        model.vocab = vocab
        model.dim = int(phi_in.shape[2])
        models.append(model)
    # Persona anchor (row-space matrix shared read-only + λ), or None.
    anchor = (None if anchor_spec is None
              else RowAnchor(attach_shared_array(anchor_spec[0]),
                             anchor_spec[1]))
    tokens, offsets, shard_flat, shard_offsets = (
        attach_shared_array(handle) for handle in corpus_handles)
    shards = [shard_flat[shard_offsets[i]:shard_offsets[i + 1]]
              for i in range(len(models))]
    keep = None if keep_handle is None else attach_shared_array(keep_handle)
    # "torch" workers resolve their array-ops from the (parent-validated)
    # config, so a missing torch install can never surface as an opaque
    # worker crash here.
    _WORKER_STATE["slice_trainer"] = SliceTrainer(
        models, config, learner_name, neg_keys, anchor, tokens, offsets,
        shards, keep)


def _train_round_task(slices, counters, keep_key):
    """Train one worker's share of a sync round.

    ``slices`` holds the share's ``(machine, lo, hi, lr)`` descriptors and
    ``counters`` where each of those machines' negative streams stands
    (any worker may train any machine's slice, so the position travels
    with the task).  Returns ``(tokens used, counters after)``.
    """
    trainer = _WORKER_STATE["slice_trainer"]
    streams = [trainer.learners[machine].neg_stream
               for machine, _lo, _hi, _lr in slices]
    for stream, counter in zip(streams, counters):
        stream.counter = counter
    used = trainer.train_round(slices, keep_key)
    return used, [stream.counter for stream in streams]


class ProcessSliceTrainer:
    """Runs per-machine training slices on workers over shared replicas.

    The process-pool counterpart of
    :class:`~repro.embedding.trainer.SliceTrainer`, with the same
    ``train_round``.  The trainer repoints every replica's matrices into
    one shared-memory block ``(machines, vocab, dim)``; workers mutate
    their machine's block in place, the parent's sync strategy
    reads/writes the same pages between rounds.  The token block,
    offsets, shard indices and keep probabilities are shared **once**, so
    a sync round ships only slice descriptors plus each machine's
    negative-stream counter -- a constant ~50 bytes per machine;
    ``ipc_task_bytes`` accumulates what was actually pickled (the
    Table 3 IPC gate reads it).
    """

    def __init__(self, replicas, config, learner_name: str,
                 neg_keys, anchor, corpus, shards: Sequence[np.ndarray],
                 keep: Optional[np.ndarray]) -> None:
        m = len(replicas)
        vocab = replicas[0].vocab
        dim = int(replicas[0].phi_in.shape[1])
        self._group = config.context.shared_group()
        try:
            phi_in = self._group.empty((m, vocab.size, dim), np.float32)
            phi_out = self._group.empty((m, vocab.size, dim), np.float32)
            for i, replica in enumerate(replicas):
                phi_in.array[i] = replica.phi_in
                phi_out.array[i] = replica.phi_out
                replica.phi_in = phi_in.array[i]
                replica.phi_out = phi_out.array[i]
            shard_offsets = np.zeros(m + 1, dtype=np.int64)
            np.cumsum([s.size for s in shards], out=shard_offsets[1:])
            if corpus.is_spilled and corpus.total_tokens:
                # The corpus already lives on shareable .npy files: hand
                # workers handles over those -- no O(corpus) copy into a
                # second segment/file.
                tokens_handle, offsets_handle = corpus.spill_handles()
            else:
                tokens_handle = self._group.share(corpus.tokens)
                offsets_handle = self._group.share(corpus.offsets)
            corpus_handles = (
                tokens_handle,
                offsets_handle,
                self._group.share(np.concatenate(shards)),
                self._group.share(shard_offsets),
            )
            # The persona anchor matrix (row space) and the keep
            # probabilities ride along read-only -- every worker reads
            # the same shared bytes.
            anchor_spec = (None if anchor is None
                           else (self._group.share(anchor.matrix),
                                 float(anchor.lam)))
            keep_handle = None if keep is None else self._group.share(keep)
            self.workers = config.context.pool_size
            native.load()    # resolved here, so the forked workers inherit it
            self._pool = ProcessExecutor(
                self.workers, initializer=_train_worker_init,
                initargs=(phi_in.handle, phi_out.handle, vocab, config,
                          learner_name, neg_keys, anchor_spec,
                          corpus_handles, keep_handle))
        except BaseException:
            self._group.close()
            raise
        self._counters = [0] * m
        #: Pickled bytes of the per-round task messages shipped.
        self.ipc_task_bytes = 0
        self.ipc_rounds = 0

    def train_round(self, slices, keep_key: int) -> List[int]:
        """Train one sync round's ``(machine, lo, hi, lr)`` slices, one
        task per worker (:func:`_train_round_task`).

        Returns the tokens each slice's learner used, having advanced
        each machine's negative-stream counter to where the serial path
        would leave it.
        """
        import pickle

        if not slices:
            # Only zero-length walks were left: nothing ships, so the
            # round does not count as IPC.
            return []
        # One task per worker: its share of the round's machines runs as
        # one lock-step round inside the worker.
        shares = [slices[lo:hi]
                  for lo, hi in split_ranges(len(slices), self.workers)]
        tasks = [(share, [self._counters[s[0]] for s in share], keep_key)
                 for share in shares]
        self.ipc_rounds += 1
        self.ipc_task_bytes += sum(
            len(pickle.dumps(task, protocol=pickle.HIGHEST_PROTOCOL))
            for task in tasks)
        used: List[int] = []
        for share, (share_used, counters) in zip(
                shares, self._pool.run(_train_round_task, tasks)):
            for (machine, _lo, _hi, _lr), counter in zip(share, counters):
                self._counters[machine] = counter
            used.extend(share_used)
        return used

    def ipc_stats(self) -> Dict[str, float]:
        """IPC accounting for :class:`TrainResult.extras` / the benches."""
        return {"ipc_rounds": float(self.ipc_rounds),
                "ipc_task_bytes": float(self.ipc_task_bytes)}

    def close(self) -> None:
        self._pool.shutdown()
        self._group.close()


# --------------------------------------------------------------------- #
# Partition phase
# --------------------------------------------------------------------- #


def _partition_worker_init(graph_handle, arc_handle, num_parts,
                           gamma) -> None:
    _WORKER_STATE["part_graph"] = attach_graph(graph_handle)
    _WORKER_STATE["part_arc"] = attach_shared_array(arc_handle)
    _WORKER_STATE["part_num_parts"] = num_parts
    _WORKER_STATE["part_gamma"] = gamma


def _partition_segment_task(segment: np.ndarray) -> np.ndarray:
    from repro.partition.mpgp import _mpgp_stream

    part_of = _mpgp_stream(_WORKER_STATE["part_graph"], segment,
                           _WORKER_STATE["part_num_parts"],
                           _WORKER_STATE["part_gamma"],
                           _WORKER_STATE["part_arc"])
    return part_of[segment]


def run_partition_segments(graph, segments, num_parts: int, gamma: float,
                           arc_cm: np.ndarray,
                           context: ExecutionContext) -> List[np.ndarray]:
    """Partition parallel-MPGP's segments on worker processes.

    Returns each segment's per-node part labels (aligned with the segment
    order), exactly as the serial per-segment loop produces them --
    segments share no state, so the fan-out is a pure reordering.
    The context's ``backing="mmap"`` ships the CSR + common-neighbour
    table as spill files instead of shm segments (same labels either
    way).
    """
    group = context.shared_group()
    try:
        graph_handle = share_graph(group, graph)
        arc_handle = group.share(arc_cm)
        native.load()    # resolved here, so the forked workers inherit it
        with ProcessExecutor(
                min(context.pool_size, len(segments)),
                initializer=_partition_worker_init,
                initargs=(graph_handle, arc_handle, num_parts,
                          gamma)) as pool:
            return pool.run(_partition_segment_task,
                            [(segment,) for segment in segments])
    finally:
        group.close()
