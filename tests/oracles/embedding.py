"""Embedding oracles: the per-window reference learners.

The trainer runs the batched learners of :mod:`repro.embedding.vectorized`
(plus the loop-only pSGNScc baseline).  The learners here are the
straightforward formulations they must reproduce bit for bit under the
shared counter-based negative streams:

* :class:`SGNSLearner` -- the original word2vec formulation (Fig. 3(a)):
  every (context, target) pair draws its own negative set, producing
  level-1 (vector-vector) operations;
* :class:`Pword2vecLearner` -- one negative set shared across all context
  nodes of a window (Fig. 3(b), Ji et al. [22]), one small matrix-matrix
  product per window;
* :class:`DSGLLearner` -- DSGL's concurrent-lifetime model (§4.2) run one
  lifetime at a time: each lifetime is planned on demand and run through
  the shared step kernel, and the cohort ends with the same delta-sum
  merge the lock-step learner applies.

Duplicate-row updates within one batch follow Hogwild semantics (last
write wins), exactly like the lock-free implementations they model.
:func:`train_reference` runs :class:`~repro.embedding.trainer.
DistributedTrainer` with these learners in place of the batched ones.
"""

from __future__ import annotations

import dataclasses
from typing import List, Sequence
from unittest import mock

import numpy as np

from repro.embedding import trainer as trainer_module
from repro.embedding.model import sigmoid
from repro.embedding.sgns import BaseLearner
from repro.embedding.trainer import DistributedTrainer, TrainResult
from repro.embedding.vectorized import merge_deltas, plan_dsgl_slice
from repro.embedding.windows import iter_windows
from repro.runtime.executor import ExecutionContext


class SGNSLearner(BaseLearner):
    """Vanilla Skip-Gram with per-pair negative sampling (level-1 BLAS)."""

    name = "sgns"

    def train_walks(self, walks: Sequence[np.ndarray], lr: float) -> int:
        phi_in, phi_out = self.model.phi_in, self.model.phi_out
        k = self.config.negatives
        tokens = 0
        for walk in walks:
            tokens += int(walk.size)
            rows = self._rows(walk)
            for target, contexts in iter_windows(rows, self.config.window):
                for c_row in contexts:
                    neg_rows = self._negatives(k)
                    out_rows = np.concatenate([[target], neg_rows])
                    x = phi_in[c_row].copy()   # the pre-update row
                    outs = phi_out[out_rows]
                    scores = sigmoid(outs @ x)
                    grad = np.zeros(k + 1, dtype=np.float32)
                    grad[0] = 1.0
                    grad -= scores
                    grad *= lr
                    phi_in[c_row] = x + grad @ outs
                    phi_out[out_rows] = outs + np.outer(grad, x)
        return tokens


class Pword2vecLearner(BaseLearner):
    """Shared-negatives-per-window learner (level-3 BLAS batching)."""

    name = "pword2vec"

    def train_walks(self, walks: Sequence[np.ndarray], lr: float) -> int:
        phi_in, phi_out = self.model.phi_in, self.model.phi_out
        k = self.config.negatives
        tokens = 0
        for walk in walks:
            tokens += int(walk.size)
            rows = self._rows(walk)
            for target, contexts in iter_windows(rows, self.config.window):
                neg_rows = self._negatives(k)
                out_rows = np.concatenate([[target], neg_rows])
                ctx = phi_in[contexts]                     # (m, d)
                outs = phi_out[out_rows]                   # (k+1, d)
                scores = sigmoid(ctx @ outs.T)             # (m, k+1)
                labels = np.zeros_like(scores)
                labels[:, 0] = 1.0
                grad = (labels - scores) * lr              # (m, k+1)
                phi_in[contexts] = ctx + grad @ outs
                phi_out[out_rows] = outs + grad.T @ ctx
        return tokens


class DSGLLearner(BaseLearner):
    """Multi-window shared-negatives learner, one lifetime at a time."""

    name = "dsgl"

    def train_walks(self, walks: Sequence[np.ndarray], lr: float) -> int:
        """Plans each lifetime on demand, runs its multi-window batches
        sequentially through the shared step kernel, and stashes the
        buffer deltas; each cohort ends with the same
        :func:`~repro.embedding.vectorized.merge_deltas` reconciliation
        the lock-step learner applies."""
        cfg = self.config
        ops = self.ops
        phi_in, phi_out = self.model.phi_in, self.model.phi_out
        cohort_walks = cfg.dsgl_threads * cfg.multi_windows
        tokens = 0
        for c_start in range(0, len(walks), cohort_walks):
            cohort = walks[c_start:c_start + cohort_walks]
            ctx_rows: List[np.ndarray] = []
            ctx_deltas: List[np.ndarray] = []
            out_rows: List[np.ndarray] = []
            out_deltas: List[np.ndarray] = []
            for start in range(0, len(cohort), cfg.multi_windows):
                (chunk_tokens,), plan = plan_dsgl_slice(
                    [(self, cohort[start:start + cfg.multi_windows], lr)])
                tokens += chunk_tokens
                if plan is None:
                    continue
                ctx_mega, ctx_start, out_mega, out_start = plan.gather(ops)
                plan.run_steps(ctx_mega, out_mega, ops)
                ctx_mega -= ctx_start
                out_mega -= out_start
                ctx_rows.append(plan.ctx_gather)
                ctx_deltas.append(ctx_mega[:-1])
                out_rows.append(plan.out_gather)
                out_deltas.append(out_mega[:-1])
            if ctx_rows:
                merge_deltas(phi_in, np.concatenate(ctx_rows),
                             np.concatenate(ctx_deltas))
                merge_deltas(phi_out, np.concatenate(out_rows),
                             np.concatenate(out_deltas))
        return tokens


#: The reference learner per name; ``psgnscc`` is already a loop learner
#: in the library and keeps it.
LEARNERS = {
    "sgns": SGNSLearner,
    "pword2vec": Pword2vecLearner,
    "dsgl": DSGLLearner,
}


def train_reference(corpus, cluster, config, learner: str = "dsgl",
                    **trainer_kwargs) -> TrainResult:
    """``DistributedTrainer(...).train()`` with the reference learners.

    Runs in-process (a serial context replaces ``config.context``): the
    learner classes are substituted for the duration of the call, which
    only the parent process sees.
    """
    config = dataclasses.replace(config,
                                 context=ExecutionContext("serial"))
    with mock.patch.dict(trainer_module.LEARNERS, LEARNERS):
        return DistributedTrainer(corpus, cluster, config, learner=learner,
                                  **trainer_kwargs).train()
