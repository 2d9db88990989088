"""Incremental re-embedding after an edge stream (the dynamic path).

One update step chains the pieces the rest of the package already
provides, none of which re-runs work the churn didn't touch:

1. **delta** — :class:`~repro.dynamic.delta.DeltaCSR` absorbs the edge
   stream in O(churn) and :meth:`~repro.dynamic.delta.DeltaCSR.compact`
   rebuilds only the touched CSR rows (byte-identical to a from-scratch
   ``CSRGraph.from_edges`` on the merged edge list).
2. **invalidate** — :func:`~repro.dynamic.invalidate.audit_walks` scans
   the flat corpus once and returns the stale walk ids (kernel-aware
   node audit by default; see that module for the correctness ladder).
3. **resample** — the stale walks re-run through the walk engine's
   :class:`~repro.walks.vectorized.BatchWalkRunner` (any walk mode) on
   the new graph *with their original walk ids*.  Walk randomness is counter-based
   (keyed by walk id and step), so a resampled non-stale walk would
   reproduce its bytes exactly — selective resampling equals the full
   re-run on the same source set.  The new walks splice into the corpus
   in place (:meth:`~repro.walks.corpus.Corpus.replace_walks`), patching
   occurrence counts incrementally.
4. **warm-start train** — a reduced-epoch
   :class:`~repro.embedding.trainer.DistributedTrainer` seeded from the
   previous embeddings (and, when available, the previous model's
   ``phi_out``) refines rather than re-learns.  The vocabulary and
   negative table rebuild from the *patched* occurrence counters, so
   frequency-dependent structures track the churn.  By default
   (``train_scope="stale"``) the refinement pass sweeps only the
   resampled walks — a sub-corpus under the full corpus's frequency
   statistics, so vocabulary order, negative table and subsampling
   thresholds stay global while the gradient work is O(churn); vectors
   of untouched regions keep their warm-start bytes exactly.
   ``train_scope="full"`` sweeps the whole corpus instead (every vector
   refreshes against the patched walk set — slower, closer to a full
   retrain).

Resampling always runs in-process: the walk bytes are independent of
the execution mode by construction, so cross-executor byte-parity of an
update step reduces to the trainer's existing serial/process/pipeline
parity guarantee.

Known limitations (documented, asserted nowhere): sources that become
*newly active* (a node whose first edge arrives in the stream) get no
walks until the next full embed — the walk-id ↔ corpus-index contract
pins the walk count; the KL walk-count rule is likewise not
re-evaluated, so the round count stays what the full run converged to
(a fresh run on the new graph may pick a different one); and walks
whose source lost its last edge collapse to length-1 paths, as a fresh
run would simply not start them.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.dynamic.delta import DeltaCSR, EdgeStream
from repro.dynamic.invalidate import audit_walks
from repro.embedding.model import EmbeddingModel, TrainConfig
from repro.embedding.trainer import (
    DistributedTrainer,
    WarmStart,
    seed_model_from_warm_start,
)
from repro.embedding.vocab import Vocabulary
from repro.graph.csr import CSRGraph
from repro.runtime.cluster import Cluster
from repro.utils.rng import derive_seed
from repro.utils.timer import Timer
from repro.walks.corpus import Corpus, _concat_ranges
from repro.walks.engine import WalkConfig
from repro.walks.kernels import make_kernel
from repro.walks.vectorized import BatchWalkRunner

__all__ = ["UpdateResult", "update_embedding"]


@dataclass
class UpdateResult:
    """Everything one incremental update step produced.

    Shaped so the *next* update can chain from it the same way it
    chains from a :class:`repro.systems.base.SystemResult`: ``graph``,
    ``corpus``, ``embeddings``, ``model``, ``walk_machines`` and
    ``assignment`` are exactly the fields the orchestration consumes.
    """

    graph: CSRGraph
    corpus: object
    embeddings: np.ndarray
    model: Optional[object]
    walk_machines: Optional[np.ndarray]
    assignment: np.ndarray
    timer: Timer
    stats: Dict[str, float] = field(default_factory=dict)

    @property
    def wall_seconds(self) -> float:
        return self.timer.total

    def phase(self, name: str) -> float:
        return self.timer.get(name)


def _extend_assignment(assignment: Optional[np.ndarray], num_nodes: int,
                       num_machines: int) -> np.ndarray:
    """Cover ``num_nodes`` ids, round-robining any nodes the previous
    assignment has never seen (placement never changes walk bytes)."""
    if assignment is None:
        return np.arange(num_nodes, dtype=np.int64) % num_machines
    assignment = np.asarray(assignment, dtype=np.int64)
    if assignment.size >= num_nodes:
        return assignment[:num_nodes]
    fresh = np.arange(assignment.size, num_nodes, dtype=np.int64) \
        % num_machines
    return np.concatenate([assignment, fresh])


def update_embedding(
    graph: CSRGraph,
    stream: EdgeStream,
    *,
    corpus,
    embeddings: np.ndarray,
    model: Optional[object] = None,
    walk_machines: Optional[np.ndarray] = None,
    assignment: Optional[np.ndarray] = None,
    walk_config: Optional[WalkConfig] = None,
    train_config: Optional[TrainConfig] = None,
    learner: str = "dsgl",
    num_machines: int = 4,
    seed: int = 0,
    update_epochs: int = 1,
    audit: str = "auto",
    train_scope: str = "stale",
    store: Optional[object] = None,
) -> UpdateResult:
    """Apply ``stream`` to ``graph`` and refresh the affected embeddings.

    ``corpus``/``embeddings`` (and optionally ``model``,
    ``walk_machines``, ``assignment``) come from the previous full run's
    :class:`~repro.systems.base.SystemResult` or the previous
    :class:`UpdateResult`; ``walk_config``/``train_config``/``seed``
    must match that run for the resample to be byte-faithful.  The
    corpus is patched **in place**.  ``update_epochs`` is the reduced
    refinement schedule (default 1 against the paper-config 4+ of a
    full run); ``train_scope`` picks what that schedule sweeps —
    ``"stale"`` (default) trains only the resampled walks under
    full-corpus statistics, ``"full"`` the whole patched corpus (see
    the module docstring).  When ``store`` is given, its embedding
    matrix is refreshed in place at the end (see
    :meth:`repro.serving.store.EmbeddingStore.update`).
    """
    walk_config = walk_config or WalkConfig.distger()
    if update_epochs <= 0:
        raise ValueError(f"update_epochs must be positive, got {update_epochs}")
    if train_scope not in ("stale", "full"):
        raise ValueError(
            f"train_scope must be 'stale' or 'full', got {train_scope!r}")
    embeddings = np.asarray(embeddings)
    timer = Timer()

    with timer.phase("delta"):
        delta = DeltaCSR(graph)
        delta.apply(stream)
        changed = delta.changed_arcs()
        new_graph = delta.compact()

    stats: Dict[str, float] = {
        "inserts": float(stream.num_inserts),
        "deletes": float(stream.num_deletes),
        "changed_arcs": float(len(changed)),
        "new_nodes": float(new_graph.num_nodes - graph.num_nodes),
    }

    if len(changed) == 0 and new_graph.num_nodes == graph.num_nodes:
        # Every edit was a no-op (delete of a missing edge, re-insert of
        # an existing unweighted one...): nothing is stale.
        stats.update({"stale_walks": 0.0, "resampled_tokens": 0.0})
        return UpdateResult(
            graph=new_graph, corpus=corpus, embeddings=embeddings,
            model=model, walk_machines=walk_machines,
            assignment=_extend_assignment(assignment, new_graph.num_nodes,
                                          num_machines),
            timer=timer, stats=stats)

    with timer.phase("invalidate"):
        if new_graph.num_nodes > corpus.num_nodes:
            corpus.expand_universe(new_graph.num_nodes)
        assignment = _extend_assignment(assignment, new_graph.num_nodes,
                                        num_machines)
        cluster = Cluster(num_machines, assignment,
                          seed=derive_seed(seed, 1))
        stale = audit_walks(corpus, changed, kernel=walk_config.kernel,
                            old_graph=graph, new_graph=new_graph,
                            audit=audit)
    stats["stale_walks"] = float(stale.size)
    total_walks = corpus.num_walks
    stats["total_walks"] = float(total_walks)

    if walk_machines is not None:
        walk_machines = np.asarray(walk_machines, dtype=np.int64).copy()
        if walk_machines.size != total_walks:
            raise ValueError("walk_machines must align with corpus walks")
    else:
        first = np.asarray(corpus.offsets[:-1])
        walk_machines = assignment[np.asarray(corpus.tokens[first],
                                              dtype=np.int64)]

    resampled_tokens = 0
    if stale.size:
        with timer.phase("resample"):
            starts = np.asarray(corpus.offsets)[stale]
            sources = np.asarray(corpus.tokens[starts], dtype=np.int64)
            runner = BatchWalkRunner(new_graph, cluster.walk_seed_root,
                                     walk_config,
                                     make_kernel(walk_config, new_graph))
            # Original walk ids: the corpus index *is* the walk id under
            # the round protocol, so counter-based streams line up with
            # what a full re-run would draw for these walks.
            walks = runner.run_walks(sources, stale)
            corpus.replace_walks(stale, walks.paths, walks.lengths)
            walk_machines[stale] = assignment[sources]
            resampled_tokens = int(walks.lengths.sum())
            stats["resample_trials"] = float(walks.trials.sum())
    stats["resampled_tokens"] = float(resampled_tokens)

    with timer.phase("train"):
        if train_config is None:
            train_config = TrainConfig(dim=int(embeddings.shape[1]),
                                       seed=derive_seed(seed, 2) or 0)
        cfg = dataclasses.replace(train_config, epochs=update_epochs)
        phi_out = None
        if model is not None:
            phi_out = model.vocab.reorder_to_node_space(model.phi_out)
        warm = WarmStart(phi_in=embeddings, phi_out=phi_out)
        if train_scope == "stale":
            train_corpus, train_wm = _stale_subcorpus(corpus, stale,
                                                      walk_machines)
        else:
            train_corpus, train_wm = corpus, walk_machines
        if train_corpus.num_walks == 0:
            # Nothing to refine (churn minted nodes but invalidated no
            # walks): keep the warm vectors, word2vec-init any new rows.
            vocab = Vocabulary.from_occurrences(corpus.occurrences)
            new_model = EmbeddingModel(vocab, cfg.dim, seed=cfg.seed)
            seed_model_from_warm_start(new_model, vocab, warm, cfg.dim)
            new_embeddings = new_model.embeddings_node_space()
            stats["train_tokens"] = 0.0
        else:
            trainer = DistributedTrainer(
                train_corpus, cluster, cfg, learner=learner,
                walk_machines=train_wm, warm_start=warm)
            train_result = trainer.train()
            new_embeddings = train_result.embeddings
            new_model = train_result.model
            stats["train_tokens"] = float(train_result.tokens_processed)
            stats.update({key: float(value)
                          for key, value in train_result.extras.items()})

    if store is not None:
        store.update(new_embeddings)

    return UpdateResult(
        graph=new_graph, corpus=corpus, embeddings=new_embeddings,
        model=new_model, walk_machines=walk_machines,
        assignment=assignment, timer=timer, stats=stats)


def _stale_subcorpus(corpus, stale: np.ndarray,
                     walk_machines: np.ndarray):
    """The stale walks as a standalone corpus under full-corpus stats.

    The refinement pass trains only these walks, but the occurrence
    counters are the *whole* corpus's: vocabulary order, the negative
    table and subsampling thresholds must describe the corpus the warm
    vectors were trained on, not the churn-biased slice.
    """
    offsets = np.asarray(corpus.offsets)
    lengths = offsets[1:] - offsets[:-1]
    sub_lengths = lengths[stale]
    sub_tokens = np.asarray(corpus.tokens)[
        _concat_ranges(offsets[:-1][stale], sub_lengths)]
    sub_offsets = np.zeros(stale.size + 1, dtype=np.int64)
    np.cumsum(sub_lengths, out=sub_offsets[1:])
    sub = Corpus.from_flat(corpus.num_nodes, sub_tokens, sub_offsets,
                           occurrences=corpus.occurrences)
    return sub, walk_machines[stale]
