"""Distributed training orchestration (the learner of Fig. 1).

The corpus is split into per-machine sub-corpora (walks stay with the
machine that owns their source, as in Fig. 1).  Every machine trains a full
model replica on its shard; the trainer interleaves the shards in
sync-period slices -- every machine trains one slice, then the sync
strategy reconciles the replicas -- which is the deterministic equivalent
of the paper's parallel loop.  A round's slices touch disjoint replicas at
rates fixed up front, so the trainer plans a round as ``(machine, lo, hi,
lr)`` **slice descriptors** over the per-machine shard index arrays and
hands it to a :class:`SliceTrainer`, which resolves each slice into walk
views (:func:`repro.walks.corpus.shard_walks`) and trains the round
through :meth:`~repro.embedding.sgns.BaseLearner.train_round` (the
batched DSGL learner runs it as one lock-step plan per cohort).  A final
average produces the published embeddings.

Learner selection covers every trainer the paper measures: ``sgns``
(original word2vec), ``pword2vec`` [22], ``psgnscc`` [45] and ``dsgl``
(DistGER's own, §4.2).

Learners and randomness
-----------------------
:data:`LEARNERS` holds one learner per name: the batched learners of
:mod:`repro.embedding.vectorized` for ``sgns`` / ``pword2vec`` / ``dsgl``,
and pSGNScc's loop learner, which stays sequential because its mutable
inverted-index lookup is the overhead §4.1 measures.  Each machine's
negative samples come from a counter-based stream derived from
``(train seed, machine)``, so the per-window reference learners in
``tests/oracles/embedding.py`` consume identical randomness and produce
bit-identical embeddings -- ``tests/test_embedding_vectorized_parity.py``
is the reference-parity suite.  ``TrainConfig.backend="torch"`` runs the
same batched slice plans on torch tensors (:mod:`repro.embedding.ops`).

Execution
---------
``TrainConfig.context`` picks the slice executor
(:meth:`repro.runtime.executor.ExecutionContext.slice_trainer`).  Serial
execution owns one :class:`SliceTrainer` over its replicas.  Under
``"process"`` and ``"pipeline"`` the replica matrices, the flat corpus
(token block + offsets), the shard index arrays and the keep
probabilities move into shared memory once; every worker builds the
same :class:`SliceTrainer` over its attachment and a sync round ships
each worker its share of the descriptors
(:class:`repro.runtime.executor.ProcessSliceTrainer`) -- no walk token
is ever pickled, and serial training is the pool's code run in-process.
In the streaming dataflow the trainer is the *consumer*: pass a
:class:`repro.walks.corpus.CorpusFeed` and ``train`` waits for the
producer to finish before deriving the global corpus statistics (vocab
order, negative table, lr token total) that are fixed up front.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Type

import numpy as np

from repro.embedding.anchor import AnchorRegularizer, RowAnchor
from repro.embedding.model import EmbeddingModel, TrainConfig
from repro.embedding.negative import NegativeSampler
from repro.embedding.psgnscc import PSGNSccLearner
from repro.embedding.schedules import make_schedule, progress64
from repro.embedding.sgns import BaseLearner
from repro.embedding.sync import make_sync
from repro.embedding.vectorized import (
    VectorizedDSGLLearner,
    VectorizedPword2vecLearner,
    VectorizedSGNSLearner,
)
from repro.embedding.vocab import Vocabulary
from repro.runtime.cluster import Cluster
from repro.utils.rng import (
    CounterStream,
    derive_seed,
    spawn_rngs,
    walker_seed_root,
    walker_stream_keys,
)
from repro.walks.corpus import Corpus, shard_walks

#: The learner each name trains with (see the module docstring).
LEARNERS: Dict[str, Type[BaseLearner]] = {
    "sgns": VectorizedSGNSLearner,
    "pword2vec": VectorizedPword2vecLearner,
    "psgnscc": PSGNSccLearner,
    "dsgl": VectorizedDSGLLearner,
}

#: Salts separating the negative- and subsampling-stream roots from the
#: walk-stream root (and from each other).
_NEGATIVE_STREAM_SALT = 3
_SUBSAMPLE_STREAM_SALT = 4


class WarmStart(NamedTuple):
    """Previous embeddings to seed training from, in **node-id space**.

    The dynamic-update path (:func:`repro.dynamic.update_embedding`)
    passes the previous run's output here so a churn step trains a
    reduced-epoch refinement instead of starting from word2vec noise.
    ``phi_in`` is the published embedding matrix; ``phi_out`` optionally
    carries the previous model's context matrix (recommended — with a
    zeroed ``phi_out`` the first updates re-learn it from scratch).
    Nodes beyond ``phi_in``'s row count (ids minted by the edge stream)
    keep the word2vec initialisation.
    """

    phi_in: np.ndarray
    phi_out: Optional[np.ndarray] = None


def seed_model_from_warm_start(model: EmbeddingModel, vocab: Vocabulary,
                               warm: WarmStart, dim: int) -> None:
    """Overwrite ``model``'s word2vec init with a previous run's vectors.

    The previous matrices are in node-id space (how results are
    published); the current vocabulary's ``node_to_row`` scatters them
    into row space.  The current corpus may order rows differently
    (occurrence counts shifted) and may hold more nodes — only the
    common id prefix is seeded, so ids minted after the previous run
    keep the word2vec initialisation.
    """
    prev_in = np.asarray(warm.phi_in)
    if prev_in.ndim != 2 or prev_in.shape[1] != dim:
        raise ValueError(
            f"warm-start phi_in shape {prev_in.shape} does not match "
            f"dim={dim}")
    n = min(prev_in.shape[0], vocab.size)
    rows = vocab.node_to_row[:n]
    model.phi_in[rows] = prev_in[:n].astype(np.float32, copy=False)
    prev_out = warm.phi_out
    if prev_out is not None:
        prev_out = np.asarray(prev_out)
        if prev_out.shape != prev_in.shape:
            raise ValueError(
                f"warm-start phi_out shape {prev_out.shape} does not "
                f"match phi_in {prev_in.shape}")
        model.phi_out[rows] = prev_out[:n].astype(np.float32, copy=False)


class SliceTrainer:
    """One process's end of the walk→train hand-off.

    A learner per machine over that machine's replica matrices, plus what
    a slice descriptor indexes: the flat corpus, the per-machine shard
    index arrays and (under subsampling) the keep probabilities.  The
    serial trainer builds one over its own replicas and every slice
    worker one over its shared-memory attachment, so both executors run
    this constructor and this round body.
    """

    def __init__(self, models: Sequence[EmbeddingModel], config: TrainConfig,
                 learner_name: str, neg_keys: Sequence[int],
                 anchor: Optional[RowAnchor], tokens: np.ndarray,
                 offsets: np.ndarray, shards: Sequence[np.ndarray],
                 keep: Optional[np.ndarray]) -> None:
        # The torch backend only swaps the array-ops implementation
        # (resolved per learner from the config by BaseLearner).
        self.learner_cls = LEARNERS[learner_name]
        sampler = NegativeSampler(models[0].vocab)
        self.learners: List[BaseLearner] = []
        for machine, model in enumerate(models):
            # Counter-based per-machine negative streams: draws are a pure
            # function of (key, draw index), so learners and executors
            # consume identical negatives.
            learner = self.learner_cls(model, sampler, config,
                                       CounterStream(int(neg_keys[machine])))
            learner.anchor = anchor
            learner.machine = machine
            self.learners.append(learner)
        self.tokens = tokens
        self.offsets = offsets
        self.shards = shards
        self.keep = keep

    def train_round(self, slices, keep_key: int) -> List[int]:
        """Train one sync round's ``(machine, lo, hi, lr)`` slices; return
        the tokens each slice's learner used.

        The whole round goes to the learner at once (the batched DSGL
        learner lock-steps the machines per cohort), then the persona
        pull runs over each slice's touched rows -- a no-op without an
        anchor, and it draws no negatives.
        """
        groups = [(self.learners[machine],
                   shard_walks(self.tokens, self.offsets,
                               self.shards[machine], lo, hi, self.keep,
                               keep_key),
                   lr)
                  for machine, lo, hi, lr in slices]
        used = self.learner_cls.train_round(groups)
        for learner, walks, lr in groups:
            learner.apply_anchor(walks, lr)
        return used

    def ipc_stats(self) -> Dict[str, float]:
        """Nothing crosses a process boundary in-process."""
        return {}

    def close(self) -> None:
        """Nothing to release: the replicas and corpus are the caller's."""


@dataclass
class TrainResult:
    """Output of distributed training."""

    embeddings: np.ndarray          # (num_nodes, dim) node-id space
    model: EmbeddingModel           # averaged final model (row space)
    tokens_processed: int = 0
    wall_seconds: float = 0.0
    sync_rounds: int = 0
    extras: Dict[str, float] = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        """Tokens (nodes) processed per second -- the paper's §6.5 metric."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.tokens_processed / self.wall_seconds


class DistributedTrainer:
    """Trains node embeddings from a corpus over a simulated cluster."""

    def __init__(
        self,
        corpus: Corpus,
        cluster: Cluster,
        config: Optional[TrainConfig] = None,
        learner: str = "dsgl",
        walk_machines: Optional[Sequence[int]] = None,
        feed: Optional["CorpusFeed"] = None,
        warm_start: Optional[WarmStart] = None,
        anchor: Optional[AnchorRegularizer] = None,
    ) -> None:
        if learner not in LEARNERS:
            raise KeyError(f"unknown learner {learner!r}; options: "
                           f"{sorted(LEARNERS)}")
        self.corpus = corpus
        self.cluster = cluster
        self.config = config or TrainConfig()
        self.learner_name = learner
        if learner == "psgnscc" and self.config.backend == "torch":
            raise ValueError(
                "learner 'psgnscc' cannot run on torch: its per-window "
                "partner lookup mutates state between windows, so it has "
                "no batched slice plan; use backend='auto'")
        #: Finished-event of a corpus that is still being sampled (the
        #: pipeline dataflow's walk→train hand-off); None means the
        #: corpus is already complete.
        self.feed = feed
        if feed is not None and feed.corpus is not corpus:
            raise ValueError("feed must wrap the corpus being trained on")
        self.walk_machines = (
            None if walk_machines is None else np.asarray(walk_machines))
        if feed is None:
            self._check_walk_machines()
        #: Node-space seed matrices applied to the base model before the
        #: replicas are cloned (and before the process executor shares
        #: them), so every execution mode trains from identical bytes.
        self.warm_start = warm_start
        #: Persona anchor regularizer (node-id space); converted to row
        #: space once the corpus vocabulary is known and applied after
        #: every training slice (:mod:`repro.embedding.anchor`).
        self.anchor = anchor

    # ------------------------------------------------------------------ #

    def _check_walk_machines(self) -> None:
        """``walk_machines`` names one machine of the cluster per corpus
        walk -- checked once the walk count is final (at construction, or
        after the feed finished)."""
        machines = self.walk_machines
        if machines is None:
            return
        if machines.shape != (self.corpus.num_walks,):
            raise ValueError("walk_machines must align with corpus walks")
        if machines.size and machines.dtype.kind not in "iu":
            raise ValueError(
                f"walk_machines must be integers, got dtype {machines.dtype}")
        m = self.cluster.num_machines
        bad = np.flatnonzero((machines < 0) | (machines >= m))
        if bad.size:
            raise ValueError(
                f"walk {int(bad[0])} is placed on machine "
                f"{int(machines[bad[0]])}; the cluster has machines "
                f"0..{m - 1}")

    def _shards(self) -> List[np.ndarray]:
        """Split walks into per-machine sub-corpora (walk-index arrays).

        Shards are **indices into the corpus** rather than walk arrays:
        sync-round slices are ``(lo, hi)`` ranges over exactly these
        index arrays, resolved into zero-copy views where they train
        (:func:`~repro.walks.corpus.shard_walks`).  With
        ``walk_machines`` the sub-corpora keep sampling locality (walks
        stay with their source's machine -- load-bearing for
        reconciliation quality), then whole walks are moved from the
        heaviest to the lightest shards until token counts are balanced:
        the partitioner's γ-slack node skew must not become a training
        straggler.
        """
        m = self.cluster.num_machines
        n = self.corpus.num_walks
        if self.walk_machines is None:
            return [np.arange(i, n, m, dtype=np.int64) for i in range(m)]
        shards = [np.flatnonzero(self.walk_machines == machine).tolist()
                  for machine in range(m)]
        lengths = self.corpus.walk_lengths
        tokens = [int(lengths[shard].sum()) for shard in shards]
        target = sum(tokens) / m
        # Move trailing walks off overloaded shards onto the lightest one.
        for heavy in range(m):
            while tokens[heavy] > 1.05 * target and len(shards[heavy]) > 1:
                light = int(np.argmin(tokens))
                if light == heavy or tokens[light] >= 0.95 * target:
                    break
                walk = shards[heavy].pop()
                shards[light].append(walk)
                tokens[heavy] -= int(lengths[walk])
                tokens[light] += int(lengths[walk])
        return [np.asarray(shard, dtype=np.int64) for shard in shards]

    def _keep_probabilities(self) -> Optional[np.ndarray]:
        """word2vec subsampling: per-node keep probability, or None."""
        t = self.config.subsample
        if t <= 0:
            return None
        occ = self.corpus.occurrences.astype(np.float64)
        total = max(1.0, occ.sum())
        freq = np.maximum(occ / total, 1e-12)
        return np.minimum(1.0, np.sqrt(t / freq))

    def _check_finite(self, final: EmbeddingModel) -> None:
        """Fail here, where the divergence happened, rather than at the
        serving store or silently inside a benchmark."""
        for name, matrix in (("phi_in", final.phi_in),
                             ("phi_out", final.phi_out)):
            bad = np.flatnonzero(~np.isfinite(matrix).all(axis=1))
            if bad.size:
                row = int(bad[0])
                raise FloatingPointError(
                    f"training diverged: learner {self.learner_name!r} at "
                    f"lr={self.config.lr!r} left {bad.size} non-finite "
                    f"{name} rows, first row {row} (node "
                    f"{int(final.vocab.row_to_node[row])}); lower lr")

    def train(self) -> TrainResult:
        """Run the full distributed training; returns final embeddings."""
        cfg = self.config
        cluster = self.cluster
        m = cluster.num_machines
        if self.feed is not None:
            # Global-statistics barrier: the frequency-ordered vocabulary,
            # the unigram^0.75 negative table, the subsampling
            # keep-probabilities and the lr schedule's token total are all
            # functions of the *final* occurrence counters, so they can
            # only be fixed once the producer has finished -- consuming
            # any slice earlier would change bytes.
            self.feed.wait_finished()
            self._check_walk_machines()
        vocab = Vocabulary.from_corpus(self.corpus)
        keep = self._keep_probabilities()
        base_model = EmbeddingModel(vocab, cfg.dim, seed=cfg.seed)
        if self.warm_start is not None:
            seed_model_from_warm_start(base_model, vocab, self.warm_start,
                                       cfg.dim)
        replicas = [base_model if i == 0 else base_model.clone()
                    for i in range(m)]
        # Child m of m + 1: the goldens pin the sync draws to this child.
        sync_rng = spawn_rngs(cfg.seed, m + 1)[-1]
        # Counter-stream keys: one negative stream per machine, one
        # subsampling stream per epoch (indexed by flat corpus position).
        neg_keys = walker_stream_keys(
            walker_seed_root(derive_seed(cfg.seed, _NEGATIVE_STREAM_SALT)),
            np.arange(m, dtype=np.int64))
        keep_keys = walker_stream_keys(
            walker_seed_root(derive_seed(cfg.seed, _SUBSAMPLE_STREAM_SALT)),
            np.arange(cfg.epochs, dtype=np.int64))
        # Persona regularizer: scatter node-space anchors into this
        # corpus's row space once (same id-prefix rule as warm starts).
        # A zero λ drops the anchor entirely so the plain byte path runs.
        row_anchor = None
        if self.anchor is not None and self.anchor.lam > 0.0:
            row_anchor = RowAnchor(self.anchor.row_space(vocab, cfg.dim),
                                   self.anchor.lam)
        sync = make_sync(cfg.sync_mode)
        sync.start(replicas)
        shards = self._shards()
        # Slices and the schedule's progress are cut on raw walk lengths
        # (word2vec.c's word_count): nothing here reads a token, so under
        # process execution a file-backed corpus's token pages are only
        # ever faulted by the workers that train them (the
        # backing="mmap" RSS ceiling), and progress reaches 1.0 with or
        # without subsampling.
        lengths = self.corpus.walk_lengths
        shard_lengths = [lengths[shard].tolist() for shard in shards]
        total_tokens = self.corpus.total_tokens * cfg.epochs
        schedule = make_schedule(cfg.lr_schedule, cfg.lr, cfg.min_lr)

        tokens_done = 0
        tokens_used = 0
        sync_rounds = 0
        start = time.perf_counter()
        # Off serial: one worker pool for the whole run; replica matrices
        # move into shared memory (the parent's replica objects become
        # views, so the sync strategy below keeps operating in place).
        slice_trainer = cfg.context.slice_trainer(
            replicas, cfg, self.learner_name, neg_keys,
            row_anchor, self.corpus, shards, keep)
        try:
            for epoch in range(cfg.epochs):
                # Cursor into each machine's shard.
                cursors = [0] * m
                while any(cursors[i] < len(shards[i]) for i in range(m)):
                    # Cut every machine's sync-period slice first.  A
                    # machine's learning rate depends on the tokens the
                    # machines before it were handed this period, so the
                    # rates are fixed up front -- which is what lets the
                    # process executor run the (replica-disjoint) slices
                    # concurrently and still match the serial interleaving
                    # bit for bit.
                    slices = []
                    for machine in range(m):
                        walk_tokens = shard_lengths[machine]
                        lo = hi = cursors[machine]
                        slice_tokens = 0
                        while (hi < len(walk_tokens)
                               and slice_tokens < cfg.sync_period_tokens):
                            slice_tokens += walk_tokens[hi]
                            hi += 1
                        cursors[machine] = hi
                        if slice_tokens == 0:
                            continue
                        # progress64 keeps the schedule input float64 no
                        # matter which dtype tier the slices train in --
                        # the lr sequence is part of the parity contract.
                        lr = schedule(progress64(tokens_done, total_tokens))
                        tokens_done += slice_tokens
                        slices.append((machine, lo, hi, lr))
                    used = slice_trainer.train_round(slices,
                                                     int(keep_keys[epoch]))
                    for (machine, _lo, _hi, _lr), tokens in zip(slices, used):
                        tokens_used += tokens
                        # Compute cost: one fused update per token per
                        # (window x (K+1)) dot products, matching §2.1's
                        # complexity O(C · w · (K+1) · o).
                        cluster.metrics.record_compute(
                            machine,
                            tokens * cfg.window * (cfg.negatives + 1))
                    sync.sync(replicas, sync_rng, cluster.metrics)
                    sync_rounds += 1
            # Final reduction: delta-sum every row once so no machine's
            # contribution is lost.  (``finalize`` clones, so the returned
            # model owns its matrices even when replicas are shared views.)
            final = sync.finalize(replicas, cluster.metrics)
        finally:
            slice_trainer.close()
        wall = time.perf_counter() - start
        self._check_finite(final)
        for machine in range(m):
            cluster.metrics.record_memory(
                machine,
                replicas[machine].memory_bytes() + self.corpus.memory_bytes() // m,
            )
        return TrainResult(
            embeddings=final.embeddings_node_space(),
            model=final,
            tokens_processed=tokens_used,
            wall_seconds=wall,
            sync_rounds=sync_rounds,
            # IPC accounting of the slice-descriptor protocol (what the
            # Table 3 pickled-bytes-per-sync-round gate reads).
            extras=slice_trainer.ipc_stats(),
        )
