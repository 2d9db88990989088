"""The distributed walk engine (sampler of Fig. 1).

Runs walks for every source node over a simulated :class:`Cluster`.
Three modes reproduce the three systems compared throughout the paper:

* ``routine``  -- KnightKing: fixed walk length ``L`` and ``r`` walks per
  node, constant 24/32-byte messages, O(1) per-step compute.
* ``fullpath`` -- HuGE-D: information-oriented walks, effectiveness
  recomputed from the full path each step (O(L)), messages carry the path
  (``24 + 8L`` bytes).
* ``incom``    -- DistGER: information-oriented walks with O(1) InCoM
  measurement and constant 80-byte messages.

Every mode runs on one engine: all walkers of a round advance in
lock-step through :class:`repro.walks.vectorized.BatchWalkRunner` (NumPy
array ops for proposal and acceptance, for every kernel); the mode only
picks how the runner *measures* a walk.  HuGE-D's whole-path
recomputation is performed for real, walker by walker, so the wall-clock
separation from InCoM is genuine, not just simulated.

Finished walks are flushed into the flat
:class:`repro.walks.corpus.Corpus` (one contiguous token block + monotone
offsets) in **walk-id order** -- the canonical corpus order of the walker
RNG protocol -- by compacting whole padded rounds into the token block
with ``Corpus.add_walks``.

Per-machine compute units are credited for every sampling trial and for
every measurement at its mode-specific cost, so the simulated cost model
reproduces the paper's complexity separations.  Rounds record each
step's arc and trial count and reach ``WalkStats`` and the metrics
through one :class:`~repro.walks.vectorized.DeferredWalkAccounting`,
under every execution.

Randomness
----------
Walk randomness has one source: each walker owns a counter-based stream
derived from ``(cluster seed, walk_id)`` via :mod:`repro.utils.rng`,
consuming exactly two uniforms per sampling trial.  Walks are therefore
independent of scheduling, batching and machine count: a per-walker BSP
loop driven over the same config produces **byte-identical corpora,
stats and metrics** to the lock-step rounds in every mode -- the
reference-parity guarantee (``tests/oracles/walks.py`` holds that loop;
``tests/test_walks_vectorized_parity.py`` asserts it), which the
corpus/embedding machine-count invariance suite
(``tests/test_golden_pipeline.py``) also relies on.

``WalkConfig.context.execution`` (the run's
:class:`~repro.runtime.executor.ExecutionContext`) selects *where* a
round's walkers run; one consumer loop (:meth:`DistributedWalkEngine._run_rounds`)
flushes rounds in walk-id order and folds their buffers into the
accounting whichever it is:

* ``"serial"`` (default) -- one in-process runner fills one reused
  round slot.
* ``"process"`` / ``"pipeline"`` -- a round's walkers are split across
  ``workers`` OS processes by one runner,
  :class:`repro.runtime.executor.StreamingWalkRunner`: each worker
  advances its walker slice through the same lock-step supersteps over a
  shared-memory CSR and fills its rows of a shared round slot, so
  workers never need the node assignment.  ``"process"`` keeps one
  round in flight -- a barrier per round.  ``"pipeline"`` keeps
  :data:`repro.runtime.executor.PIPELINE_DEPTH` rounds in flight, so
  workers advance round ``k+1`` while the parent flushes round ``k``
  (rounds speculatively sampled past a KL stop are discarded without a
  trace), and lets the system-level coordinator overlap MPGP
  partitioning with sampling.  Because walker randomness is
  counter-based, both are **byte-identical** to serial -- same corpus,
  stats and metrics, the executor parity contract
  (``tests/test_runtime_executor_parity.py``) -- in every mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.graph.csr import CSRGraph
from repro.runtime.cluster import Cluster
from repro.runtime.executor import ExecutionContext
from repro.runtime.message import BYTES_PER_FIELD
from repro.utils.validation import check_integral, check_positive
from repro.walks.corpus import Corpus
from repro.walks.kernels import KERNELS, make_kernel
from repro.walks.termination import WalkCountRule, WalkLengthRule
from repro.walks.vectorized import (
    _FULLPATH_HEADER_BYTES,
    _INCOM_MESSAGE_BYTES,
    BatchWalkRunner,
    DeferredWalkAccounting,
    WalkBuffers,
)
from repro.walks.walker import WalkStats


@dataclass
class WalkConfig:
    """Every knob of the sampling phase in one place.

    Defaults correspond to DistGER's information-oriented mode with the
    laptop-scale calibration discussed in
    :mod:`repro.walks.termination`; ``routine()`` and ``huge_d()`` presets
    build the baselines.
    """

    kernel: str = "huge"    # a key of repro.walks.kernels.KERNELS
    mode: str = "incom"             # incom | fullpath | routine
    # mu=0.82 is the laptop-scale calibration of the paper's mu=0.995 (see
    # repro.walks.termination): it reproduces the ~63% average walk-length
    # reduction against the routine L=80 on the dataset stand-ins.
    mu: float = 0.82
    delta: float = 0.001   # the paper's constant; also well-behaved here
    min_length: int = 5
    max_length: int = 80
    walk_length: int = 80           # routine mode only
    walks_per_node: int = 10        # routine mode only
    min_rounds: int = 2
    max_rounds: int = 10
    max_trials_per_step: int = 32
    p: float = 1.0                  # node2vec return parameter
    q: float = 1.0                  # node2vec in-out parameter
    #: Where rounds run and where shared blocks live -- see the module
    #: docstring.  Under ``backing="mmap"`` the corpus, CSR and kernel
    #: tables spill to file-backed ``.npy`` maps, so resident memory
    #: stays O(round), not O(corpus).
    context: ExecutionContext = field(default_factory=ExecutionContext)

    def __post_init__(self) -> None:
        if self.mode not in ("incom", "fullpath", "routine"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if (not isinstance(self.kernel, str)
                or self.kernel.lower() not in KERNELS):
            raise ValueError(f"unknown kernel {self.kernel!r}; "
                             f"options: {sorted(KERNELS)}")
        # Names are case-insensitive; everything downstream sees one form.
        self.kernel = self.kernel.lower()
        check_positive("p", self.p)
        check_positive("q", self.q)
        check_positive("max_trials_per_step", self.max_trials_per_step)
        # A step's trials, forced one included, are recorded as int32.
        if self.max_trials_per_step > 2**31 - 2:
            raise ValueError("max_trials_per_step must be at most 2**31 - 2,"
                             f" got {self.max_trials_per_step}")
        check_positive("walk_length", self.walk_length)
        check_positive("walks_per_node", self.walks_per_node)
        # The rules own their parameter checks; building them here makes
        # a bad mu / length / round bound fail at construction instead of
        # inside run() -- after the partitioner has already been paid for.
        WalkLengthRule(mu=self.mu, min_length=self.min_length,
                       max_length=self.max_length)
        WalkCountRule(delta=self.delta, min_rounds=self.min_rounds,
                      max_rounds=self.max_rounds)
        # These size integer arrays (trial lanes, path buffers, rounds).
        for name in ("max_trials_per_step", "walk_length", "walks_per_node",
                     "min_length", "max_length", "min_rounds", "max_rounds"):
            check_integral(name, getattr(self, name))

    @classmethod
    def distger(cls, **overrides) -> "WalkConfig":
        """DistGER: HuGE walks, InCoM measurement."""
        return cls(**{"kernel": "huge", "mode": "incom", **overrides})

    @classmethod
    def huge_d(cls, **overrides) -> "WalkConfig":
        """HuGE-D baseline: HuGE walks, full-path measurement."""
        return cls(**{"kernel": "huge", "mode": "fullpath", **overrides})

    @classmethod
    def routine(cls, kernel: str = "node2vec", **overrides) -> "WalkConfig":
        """KnightKing: routine configuration (L=80, r=10)."""
        return cls(**{"kernel": kernel, "mode": "routine", **overrides})


@dataclass
class WalkResult:
    """Output of one sampling run."""

    corpus: Corpus
    stats: WalkStats
    #: Machine owning each walk's source (sub-corpus placement, Fig. 1).
    walk_machines: List[int] = field(default_factory=list)


class DistributedWalkEngine:
    """Runs a :class:`WalkConfig` over a graph placed on a cluster."""

    def __init__(
        self,
        graph: CSRGraph,
        cluster: Cluster,
        config: Optional[WalkConfig] = None,
    ) -> None:
        if cluster.assignment.size != graph.num_nodes:
            raise ValueError("cluster assignment does not cover the graph")
        self.graph = graph
        self.cluster = cluster
        self.config = config or WalkConfig()
        self.kernel = make_kernel(self.config, graph)
        # One walker message: the kernel's routine one, InCoM's constant
        # one, or HuGE-D's header (the accounting adds its path per step).
        self._message_bytes = {
            "routine": self.kernel.message_fields * BYTES_PER_FIELD,
            "incom": _INCOM_MESSAGE_BYTES,
            "fullpath": _FULLPATH_HEADER_BYTES,
        }[self.config.mode]
        #: Where rounds run.
        self.execution = self.config.context.execution
        self._batch_runner: Optional[BatchWalkRunner] = None

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

    def run(self, sources: Optional[np.ndarray] = None,
            partition_join=None) -> WalkResult:
        """Sample walks from ``sources`` (default: every node with edges).

        ``partition_join`` is the pipeline coordinator's overlap hook
        (``execution="pipeline"`` only): a callable joined *after* the
        last round is flushed and *before* anything placement-dependent
        runs, returning the node assignment to install on the cluster --
        walk corpora never depend on the placement, so the partitioner
        may still be running while rounds sample (see
        :mod:`repro.runtime.pipeline`).
        """
        cfg = self.config
        if partition_join is not None and self.execution != "pipeline":
            raise ValueError(
                "partition_join is the pipeline coordinator's hook; it "
                "requires execution='pipeline' (resolved), not "
                f"{self.execution!r}"
            )
        if sources is None:
            sources = np.flatnonzero(self.graph.degrees > 0)
        sources = np.asarray(sources)
        if sources.size:
            if not np.issubdtype(sources.dtype, np.integer):
                raise ValueError(
                    f"sources must be integer node ids, got {sources.dtype}")
            if sources.min() < 0 or sources.max() >= self.graph.num_nodes:
                raise ValueError("sources contain node ids outside the graph")
        sources = sources.astype(np.int64, copy=False)

        corpus = Corpus(self.graph.num_nodes)
        stats = WalkStats()
        walk_machines: List[int] = []
        if sources.size == 0:
            # Edge-free graph (or caller passed no sources): nothing to
            # sample, and the KL walk-count rule would be undefined.
            if partition_join is not None:
                self.cluster.assignment = np.asarray(partition_join(),
                                                     dtype=np.int64)
            return WalkResult(corpus=corpus, stats=stats,
                              walk_machines=walk_machines)

        if cfg.context.backing == "mmap":
            # Out-of-core sampling: walks land on file-backed blocks,
            # rounds append through the bounded staging buffer, and the
            # trainer later shares the blocks zero-copy from the spill
            # files.  A pure transport change -- corpora stay
            # byte-identical to shm/in-RAM runs.
            corpus.spill_to(cfg.context.spill_dir)

        if cfg.mode == "routine":
            rounds = cfg.walks_per_node
            count_rule = None
        else:
            rounds = cfg.max_rounds
            count_rule = WalkCountRule(
                delta=cfg.delta, min_rounds=cfg.min_rounds,
                max_rounds=cfg.max_rounds,
            )
        self._run_rounds(sources, rounds, count_rule, self.graph.degrees,
                         corpus, stats, walk_machines, partition_join)
        if count_rule is not None:
            stats.kl_trace = list(count_rule.kl_trace)
        # Sampling is done: drop the growth headroom so the corpus the
        # training phase holds (and shares) is exactly its logical size.
        corpus.shrink_to_fit()
        return WalkResult(corpus=corpus, stats=stats, walk_machines=walk_machines)

    # ------------------------------------------------------------------ #
    # Rounds: one consumer loop, an in-process or pooled producer
    # ------------------------------------------------------------------ #

    def _run_rounds(
        self,
        sources: np.ndarray,
        rounds: int,
        count_rule,
        degrees: np.ndarray,
        corpus: Corpus,
        stats: WalkStats,
        walk_machines: List[int],
        partition_join,
    ) -> None:
        """Consume vectorized rounds in walk-id order, under every execution.

        :meth:`_produce_rounds` hands over each round's
        :class:`~repro.walks.vectorized.WalkBuffers`; this consumer
        flushes them into the corpus (the canonical walk-id order), folds
        them into the :class:`DeferredWalkAccounting` -- the only
        accounting vectorized walks have -- and applies it against the
        node assignment at the end, joining the concurrently-running
        partitioner first when the pipeline coordinator passed its hook.
        """
        cluster = self.cluster
        accounting = DeferredWalkAccounting(
            self.graph, self.config.mode, self._message_bytes)
        produced = self._produce_rounds(sources, rounds)
        try:
            for walks in produced:
                # add_walks compacts out of the round buffers, so the
                # producer may recycle them once the next round is asked.
                corpus.add_walks(walks.paths, walks.lengths)
                trial_count, step_count = accounting.observe_round(walks)
                stats.total_trials += trial_count
                stats.total_steps += step_count
                stats.total_walks += int(walks.lengths.size)
                stats.walk_lengths.extend(walks.lengths.tolist())
                stats.rounds += 1
                if count_rule is not None:
                    if count_rule.observe_round(corpus, degrees):
                        break
        finally:
            produced.close()
        if partition_join is not None:
            # The earliest placement-dependent point: everything above is
            # a pure function of the walk seed root.
            cluster.assignment = np.asarray(partition_join(),
                                            dtype=np.int64)
        walk_machines.extend(
            cluster.assignment[sources].tolist() * stats.rounds)
        accounting.apply(cluster.assignment, cluster.metrics)

    def _produce_rounds(self, sources: np.ndarray, rounds: int):
        """Yield every round's buffers in round order; they stay valid
        until the next round is requested.

        ``"serial"`` runs :meth:`BatchWalkRunner.run_walks` in-process over
        one reused round slot.  ``"process"`` / ``"pipeline"`` read the
        slots of a :class:`~repro.runtime.executor.StreamingWalkRunner`,
        which keeps one round (a barrier per round) or
        ``PIPELINE_DEPTH`` rounds in flight; closing the generator after
        a KL stop discards whatever was sampled ahead.
        """
        if self.execution == "serial":
            if self._batch_runner is None:
                self._batch_runner = BatchWalkRunner(
                    self.graph, self.cluster.walk_seed_root, self.config,
                    self.kernel)
            runner = self._batch_runner
            n = sources.size
            slot = WalkBuffers.allocate(n, runner.cap)
            for round_idx in range(rounds):
                walk_ids = round_idx * n + np.arange(n, dtype=np.int64)
                yield runner.run_walks(sources, walk_ids, slot)
            return
        from repro.runtime.executor import PIPELINE_DEPTH, StreamingWalkRunner

        with StreamingWalkRunner(
                self.graph, self.cluster.walk_seed_root, self.config,
                self.kernel, sources, max_rounds=rounds,
                depth=PIPELINE_DEPTH if self.execution == "pipeline"
                else 1) as pool:
            for _round_idx in range(rounds):
                yield pool.next_round()
                pool.release_round()
