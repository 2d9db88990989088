"""The random-walk-based end-to-end systems: DistGER, HuGE-D, KnightKing.

All three share the same pipeline skeleton -- partition, distributed random
walks, distributed Skip-Gram -- and differ exactly where the paper says
they differ:

====================  ===================  ====================  ==============
                      DistGER              HuGE-D (baseline)     KnightKing
====================  ===================  ====================  ==============
partitioner           MPGP                 workload-balancing    workload-bal.
walks                 HuGE + InCoM O(1)    HuGE + full-path      routine L=80,
                                           O(L) per step         r=10
walker messages       80 B constant        24 + 8L B             32 B constant
trainer               DSGL                 Pword2vec             Pword2vec
synchronisation       hotness blocks       full model            full model
====================  ===================  ====================  ==============

KnightKing/HuGE-D train with Pword2vec because the real systems have no
embedded learner -- the paper couples them with Intel's Pword2vec (§6.1).

:class:`RandomWalkSystem` also exposes the *generic API* of §6.6: any
kernel (``deepwalk``/``node2vec``/``huge``/``huge+``) can be combined with
information-centric termination, which is how the Fig. 12 generality
experiments deploy DeepWalk and node2vec on DistGER.

One engine per phase: every system samples through the batched
:class:`repro.walks.vectorized.BatchWalkRunner` (lock-step supersteps,
~22x faster than the per-walker loop at 10^4 nodes); HuGE-D's walks run
to the length cap and are cut where the full-path rule stops them, with
their O(L) messages charged per step (:mod:`repro.walks.engine`).  MPGP
always scores from the precomputed per-arc common-neighbour table
(:mod:`repro.partition.mpgp`) and the trainer always runs the batched
learners, except for the loop-only pSGNScc baseline
(:mod:`repro.embedding.trainer`).  The loop references each fast path
is verified against live in ``tests/oracles/``.

Execution: each system builds one
:class:`~repro.runtime.executor.ExecutionContext` (its ``context``
argument, or lifted from the override dicts -- the four context names
may appear in any of them, but must agree) and hands the same object to
every phase config.  ``"process"`` runs walk rounds, training slices and
parallel-MPGP segments on worker processes behind per-phase barriers;
``"pipeline"`` switches :meth:`RandomWalkSystem.embed` onto the streaming
dataflow of :mod:`repro.runtime.pipeline` -- the partitioner runs
concurrently with walk sampling, walk rounds stream through a bounded
queue, and the trainer consumes the shared flat corpus once its
:class:`repro.walks.corpus.CorpusFeed` has finished.  Both are
byte-identical to serial execution.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.embedding.model import TrainConfig
from repro.embedding.trainer import DistributedTrainer
from repro.graph.csr import CSRGraph
from repro.partition.balance import WorkloadBalancePartitioner
from repro.partition.base import PartitionConfig, Partitioner
from repro.partition.mpgp import MPGPPartitioner
from repro.runtime.cluster import Cluster
from repro.runtime.executor import CONTEXT_FIELDS, ExecutionContext
from repro.systems.base import EmbeddingSystem, SystemResult
from repro.utils.rng import derive_seed
from repro.utils.timer import Timer
from repro.walks.engine import DistributedWalkEngine, WalkConfig


def _one_context(context: Optional[ExecutionContext],
                 *overrides: Optional[dict]
                 ) -> Tuple[ExecutionContext, List[dict]]:
    """The one context every phase of a system runs under.

    Lifts the :class:`ExecutionContext` field names out of the phase
    override dicts (copies; the callers' dicts are untouched) and
    returns ``(context, overrides without them)``.  A name set to two
    different values -- across the dicts, or against an explicit
    ``context`` -- raises ``ValueError``: one run executes in one place.
    """
    lifted: Dict[str, object] = {}
    remaining = []
    for override in overrides:
        override = dict(override or {})
        for name in CONTEXT_FIELDS:
            if name in override:
                value = override.pop(name)
                if lifted.setdefault(name, value) != value:
                    raise ValueError(
                        f"phase overrides disagree on {name} "
                        f"({lifted[name]!r} vs {value!r}); every phase "
                        "runs under one execution context")
        remaining.append(override)
    if context is None:
        return ExecutionContext(**lifted), remaining
    if ExecutionContext(**{**dataclasses.asdict(context), **lifted}) \
            != context:
        raise ValueError(f"overrides {lifted} disagree with context="
                         f"{context!r}; every phase runs under one "
                         "execution context")
    return context, remaining


class RandomWalkSystem(EmbeddingSystem):
    """Configurable partition → walk → train pipeline."""

    name = "random-walk-system"

    def __init__(
        self,
        partitioner: Optional[Partitioner] = None,
        walk_config: Optional[WalkConfig] = None,
        train_config: Optional[TrainConfig] = None,
        learner: str = "dsgl",
        num_machines: int = 4,
        dim: int = 64,
        epochs: int = 5,
        seed: int = 0,
    ) -> None:
        super().__init__(num_machines=num_machines, dim=dim, epochs=epochs,
                         seed=seed)
        self.partitioner = partitioner or MPGPPartitioner(seed=seed)
        self.walk_config = walk_config or WalkConfig.distger()
        self.train_config = train_config or TrainConfig(
            dim=dim, epochs=epochs, seed=derive_seed(seed, 2) or 0,
        )
        self.learner = learner
        #: Optional persona regularizer
        #: (:class:`repro.embedding.anchor.AnchorRegularizer`); attached
        #: by :func:`repro.persona.embed_persona_graph` after
        #: construction and threaded into the trainer untouched.
        self.anchor = None
        #: Optional :class:`repro.embedding.trainer.WarmStart` seeding
        #: the model before training (node-id space); the persona
        #: workload initialises personas from the base prior with it.
        self.warm_start = None

    def embed(self, graph: CSRGraph) -> SystemResult:
        timer = Timer()
        feed = None
        if self.walk_config.context.overlaps_partition():
            # Streaming dataflow: the partitioner runs on its own worker
            # while walk rounds sample ahead through the bounded queue
            # (byte-identical to the phased sequence below -- walk
            # corpora never depend on the placement).  The timer keeps
            # wall-time additivity: "sampling" covers the overlapped
            # span, "partition" only the non-overlapped join wait.
            from repro.runtime.pipeline import run_pipelined_sampling
            from repro.walks.corpus import CorpusFeed

            partition, cluster, walk_result = run_pipelined_sampling(
                graph, self.partitioner, self.num_machines,
                self.walk_config, cluster_seed=derive_seed(self.seed, 1),
                timer=timer)
            # The walk→train hand-off: the trainer waits for the feed's
            # finished-event (already set here -- the global corpus
            # statistics are the streaming barrier).
            feed = CorpusFeed(walk_result.corpus)
            feed.finish()
        else:
            with timer.phase("partition"):
                partition = self.partitioner.partition(graph,
                                                       self.num_machines)
            cluster = Cluster(self.num_machines, partition.assignment,
                              seed=derive_seed(self.seed, 1))
            with timer.phase("sampling"):
                engine = DistributedWalkEngine(graph, cluster,
                                               self.walk_config)
                walk_result = engine.run()
        # Sampling memory: graph share + corpus share + frequency lists.
        corpus_share = walk_result.corpus.memory_bytes() // self.num_machines
        graph_share = graph.memory_bytes() // self.num_machines
        for machine in range(self.num_machines):
            cluster.metrics.record_memory(machine, corpus_share + graph_share)
        with timer.phase("training"):
            # Sub-corpora stay with the machine that sampled them (Fig. 1).
            # This locality is load-bearing for quality: with MPGP most of
            # a machine's walks touch machine-local nodes, so delta-sum
            # reconciliation is near-exact and hotness-block sync only has
            # to keep the (shared) hub rows fresh.
            trainer = DistributedTrainer(
                walk_result.corpus,
                cluster,
                self.train_config,
                learner=self.learner,
                walk_machines=walk_result.walk_machines,
                feed=feed,
                warm_start=self.warm_start,
                anchor=self.anchor,
            )
            train_result = trainer.train()
        corpus_storage = walk_result.corpus.storage_bytes()
        stats: Dict[str, float] = {
            "avg_walk_length": walk_result.stats.average_length,
            "walks": walk_result.stats.total_walks,
            "rounds": walk_result.stats.rounds,
            "corpus_tokens": walk_result.corpus.total_tokens,
            # Out-of-core accounting: a spilled corpus's token block is
            # file-backed (page cache), not heap -- the memory gates read
            # the split, not the total.
            "corpus_resident_bytes": corpus_storage["resident"],
            "corpus_mapped_bytes": corpus_storage["mapped"],
            "train_tokens": train_result.tokens_processed,
            "train_throughput": train_result.throughput,
            "sync_rounds": train_result.sync_rounds,
            "partition_seconds": partition.seconds,
        }
        stats.update({key: float(value)
                      for key, value in train_result.extras.items()})
        walk_machines = walk_result.walk_machines
        return self._result(train_result.embeddings, timer, cluster, stats,
                            corpus=walk_result.corpus,
                            walk_machines=None if walk_machines is None
                            else np.asarray(walk_machines, dtype=np.int64),
                            assignment=partition.assignment,
                            model=train_result.model)


class DistGER(RandomWalkSystem):
    """The paper's system: MPGP + InCoM HuGE walks + DSGL + hotness sync."""

    name = "DistGER"

    def __init__(self, num_machines: int = 4, dim: int = 64, epochs: int = 5,
                 seed: int = 0, kernel: str = "huge",
                 walk_overrides: Optional[dict] = None,
                 train_overrides: Optional[dict] = None,
                 partition_overrides: Optional[dict] = None,
                 context: Optional[ExecutionContext] = None) -> None:
        context, (walk_overrides, train_overrides, partition_overrides) = \
            _one_context(context, walk_overrides, train_overrides,
                         partition_overrides)
        walk_kwargs = {"mode": "incom", "kernel": kernel, **walk_overrides}
        walk_kwargs["mode"] = "incom"  # InCoM is what makes it DistGER
        train_kwargs = {
            "dim": dim, "epochs": epochs, "sync_mode": "hotness",
            "seed": derive_seed(seed, 2) or 0, **train_overrides,
        }
        super().__init__(
            # Route through PartitionConfig so the overrides are validated
            # as one unit (it is the config surface PartitionConfig owns).
            partitioner=MPGPPartitioner.from_config(PartitionConfig(
                seed=seed, context=context, **partition_overrides)),
            walk_config=WalkConfig(context=context, **walk_kwargs),
            train_config=TrainConfig(context=context, **train_kwargs),
            learner="dsgl",
            num_machines=num_machines, dim=dim, epochs=epochs, seed=seed,
        )


class HuGED(RandomWalkSystem):
    """HuGE-D baseline (§2.3): information-oriented walks on KnightKing's
    substrate -- full-path messages, O(L) measurement, load-only partition,
    Pword2vec training with full synchronisation."""

    name = "HuGE-D"

    def __init__(self, num_machines: int = 4, dim: int = 64, epochs: int = 5,
                 seed: int = 0,
                 walk_overrides: Optional[dict] = None,
                 train_overrides: Optional[dict] = None,
                 context: Optional[ExecutionContext] = None) -> None:
        context, (walk_overrides, train_overrides) = _one_context(
            context, walk_overrides, train_overrides)
        train_kwargs = {
            "dim": dim, "epochs": epochs, "sync_mode": "full",
            "seed": derive_seed(seed, 2) or 0, **train_overrides,
        }
        super().__init__(
            partitioner=WorkloadBalancePartitioner(),
            walk_config=WalkConfig.huge_d(context=context, **walk_overrides),
            train_config=TrainConfig(context=context, **train_kwargs),
            learner="pword2vec",
            num_machines=num_machines, dim=dim, epochs=epochs, seed=seed,
        )


class KnightKing(RandomWalkSystem):
    """KnightKing-style system (§2.2): routine-configuration walks
    (L=80, r=10), workload-balancing partition, Pword2vec training."""

    name = "KnightKing"

    def __init__(self, num_machines: int = 4, dim: int = 64, epochs: int = 5,
                 seed: int = 0, kernel: str = "node2vec",
                 walk_length: int = 80, walks_per_node: int = 10,
                 p: float = 1.0, q: float = 1.0,
                 walk_overrides: Optional[dict] = None,
                 train_overrides: Optional[dict] = None,
                 context: Optional[ExecutionContext] = None) -> None:
        context, (walk_overrides, train_overrides) = _one_context(
            context, walk_overrides, train_overrides)
        walk_kwargs = {
            "walk_length": walk_length, "walks_per_node": walks_per_node,
            "p": p, "q": q, **walk_overrides,
        }
        train_kwargs = {
            "dim": dim, "epochs": epochs, "sync_mode": "full",
            "seed": derive_seed(seed, 2) or 0, **train_overrides,
        }
        super().__init__(
            partitioner=WorkloadBalancePartitioner(),
            walk_config=WalkConfig.routine(kernel, context=context,
                                           **walk_kwargs),
            train_config=TrainConfig(context=context, **train_kwargs),
            learner="pword2vec",
            num_machines=num_machines, dim=dim, epochs=epochs, seed=seed,
        )
