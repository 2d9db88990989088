"""The learner base class every Skip-Gram learner shares.

:class:`BaseLearner` holds one machine's replica, its negative sampler and
counter stream, and the array-ops implementation its update math runs on;
the concrete learners -- the batched SGNS / Pword2vec / DSGL learners of
:mod:`repro.embedding.vectorized`, which share one step kernel, and the
loop-only pSGNScc of :mod:`repro.embedding.psgnscc` -- subclass it.  All operate on an
:class:`EmbeddingModel` in row (frequency) space.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.embedding.model import EmbeddingModel, TrainConfig
from repro.embedding.negative import NegativeSampler
from repro.embedding.ops import ArrayOps, resolve_ops
from repro.utils.rng import CounterStream


class BaseLearner:
    """Common state for all learners.

    ``neg_stream`` is the machine's
    :class:`repro.utils.rng.CounterStream`: negatives are a pure function
    of its counter and are identical no matter how draws are batched.

    ``ops`` is the array-ops implementation the update math runs on
    (:mod:`repro.embedding.ops`); by default it is resolved from
    ``config`` -- the shared float32 NumPy reference unless
    ``config.backend`` is ``"torch"``.  Tests inject explicit instances (e.g.
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


def linear_lr(
    config: TrainConfig, tokens_done: int, tokens_total: int
) -> float:
    """word2vec's linear learning-rate decay over the whole training run."""
    if tokens_total <= 0:
        return config.lr
    progress = min(1.0, tokens_done / tokens_total)
    return max(config.min_lr, config.lr * (1.0 - progress))
