"""Baseline Skip-Gram learners: vanilla SGNS and Pword2vec.

* :class:`SGNSLearner` is the original word2vec formulation (Fig. 3(a)):
  every (context, target) pair draws its own negative set, producing
  level-1 (vector-vector) operations -- the memory-bandwidth-bound baseline.

* :class:`Pword2vecLearner` shares one negative set across all context
  nodes of a window (Fig. 3(b), Ji et al. [22]), converting the update
  into one small matrix-matrix product per window -- Intel's shared-memory
  state of the art the paper builds on and then beats with DSGL.

Both operate on an :class:`EmbeddingModel` in row (frequency) space.
Duplicate-row updates within one batch follow Hogwild semantics (last
write wins), exactly like the lock-free implementations they model.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.embedding.model import EmbeddingModel, TrainConfig, sigmoid
from repro.embedding.negative import NegativeSampler
from repro.embedding.ops import ArrayOps, resolve_ops
from repro.embedding.windows import iter_windows
from repro.utils.rng import CounterStream


class BaseLearner:
    """Common state for all learners.

    ``neg_stream`` is the machine's
    :class:`repro.utils.rng.CounterStream`: negatives are a pure function
    of its counter and are identical no matter how draws are batched.

    ``ops`` is the array-ops implementation the update math runs on
    (:mod:`repro.embedding.ops`); by default it is resolved from
    ``config`` -- the shared float32 NumPy reference for every backend
    except ``"torch"``.  Tests inject explicit instances (e.g.
    ``NumpyOps(np.float64)``) to pin the precision tiers.
    """

    name = "base"

    def __init__(
        self,
        model: EmbeddingModel,
        sampler: NegativeSampler,
        config: TrainConfig,
        neg_stream: CounterStream,
        ops: Optional[ArrayOps] = None,
    ) -> None:
        self.model = model
        self.sampler = sampler
        self.config = config
        self.neg_stream = neg_stream
        self.ops = ops if ops is not None else resolve_ops(config)
        # Optional persona regularizer (repro.embedding.anchor.RowAnchor);
        # trainers attach it after construction.
        self.anchor = None
        # The machine whose replica this learner trains, for error
        # messages; trainers attach it after construction.
        self.machine: Optional[int] = None

    def train_walks(self, walks: Sequence[np.ndarray], lr: float) -> int:
        """Train on ``walks`` at learning rate ``lr``; return tokens used."""
        raise NotImplementedError

    @staticmethod
    def train_round(groups) -> List[int]:
        """Train one sync round's ``(learner, walks, lr)`` slices, one per
        machine; return each slice's token count.

        Replicas are disjoint and the rates fixed up front, so a learner
        may interleave the slices any way that keeps each replica's own
        update order (the batched DSGL learner runs them in lock-step);
        the default trains them one after another.
        """
        return [learner.train_walks(walks, lr)
                for learner, walks, lr in groups]

    def apply_anchor(self, walks: Sequence[np.ndarray], lr: float) -> None:
        """One anchor-pull step over the unique rows touched by ``walks``.

        Splitter's persona regularizer: each touched row's φ_in is pulled
        toward its anchor with step ``lr * lam`` (see
        :mod:`repro.embedding.anchor`).  Trainers call this once per
        training slice, right after :meth:`train_walks`, identically on
        every executor.  Without an anchor (or with ``lam == 0``) this
        returns before touching any ops, keeping the plain path
        byte-identical.
        """
        anchor = self.anchor
        if anchor is None or anchor.lam <= 0.0 or len(walks) == 0:
            return
        nodes = np.unique(np.concatenate([np.asarray(w) for w in walks]))
        if nodes.size == 0:
            return
        rows = np.unique(self._rows(nodes))
        phi_in = self.ops.upload(self.model.phi_in)
        self.ops.anchor_pull(phi_in, rows,
                             self.ops.upload(anchor.matrix[rows]),
                             lr * anchor.lam)
        host = self.ops.download(phi_in)
        dst = self.model.phi_in
        if not (host is dst or np.shares_memory(host, dst)):
            np.copyto(dst, host.astype(dst.dtype, copy=False))

    # Shared helpers ----------------------------------------------------- #

    def _rows(self, nodes: np.ndarray) -> np.ndarray:
        return self.model.vocab.rows_of(nodes)

    def _negatives(self, count: int) -> np.ndarray:
        """The next ``count`` negative rows of this machine's stream."""
        return self.sampler.sample_rows_stream(count, self.neg_stream)

    def _adopt(self):
        """The model matrices as backend buffers (identity on NumPy f32).

        On a device/precision backend this uploads both matrices once per
        ``train_walks`` call; :meth:`_publish` writes them back.  The
        float32 NumPy default adopts the model's own arrays, so the hot
        path pays nothing.
        """
        return self.ops.upload(self.model.phi_in), \
            self.ops.upload(self.model.phi_out)

    def _publish(self, phi_in, phi_out) -> None:
        """Write adopted matrices back into the model (no-op if shared)."""
        for buf, dst in ((phi_in, self.model.phi_in),
                         (phi_out, self.model.phi_out)):
            host = self.ops.download(buf)
            if host is dst or np.shares_memory(host, dst):
                continue
            np.copyto(dst, host.astype(dst.dtype, copy=False))


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
                    x = phi_in[c_row]
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


def linear_lr(
    config: TrainConfig, tokens_done: int, tokens_total: int
) -> float:
    """word2vec's linear learning-rate decay over the whole training run."""
    if tokens_total <= 0:
        return config.lr
    progress = min(1.0, tokens_done / tokens_total)
    return max(config.min_lr, config.lr * (1.0 - progress))
