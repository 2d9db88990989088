"""DSGL: the paper's Distributed Skip-Gram Learning model (§4.2, Fig. 3(d)/4).

DSGL combines three improvements, all implemented here:

* **Improvement-I -- global matrices + local buffers.**  The global
  matrices are frequency-ordered (handled by :class:`Vocabulary`); during
  one *lifetime* (the processing of a multi-walk chunk on a thread) all
  touched context rows and a pre-sampled pool of negative rows are gathered
  into contiguous local buffers, every update happens in the buffers, and
  the final vectors are written back once at the end of the lifetime.  On
  real hardware this kills cache-line ping-ponging; in NumPy it replaces
  per-window scattered writes with two bulk gathers/scatters per chunk --
  the same locality win at a different granularity.

* **Improvement-II -- multi-window shared negatives.**  Windows from
  ``multi_windows`` different walks are batch-processed together: one
  negative set is shared across the whole batch and each window's target
  doubles as an additional negative for the other windows, growing the
  matrix batch from Pword2vec's ``(2w) × (K+1)`` to
  ``(group·2w) × (K+group)`` (the paper's 8×7 vs 4×6 example).

* **Improvement-III -- hotness-block synchronisation** lives in
  :mod:`repro.embedding.sync`; DSGL's frequency-ordered rows make the
  blocks contiguous.

Two execution paths coexist, keyed on the negative-draw protocol:

* **cluster protocol** (``neg_stream is None``): the legacy sequential
  serialisation -- lifetimes are processed one after another, each seeing
  the previous one's write-backs.  Kept bit-compatible with historical
  seeds.
* **shared protocol** (counter-based ``neg_stream``): the paper's actual
  concurrency model, executed deterministically -- ``dsgl_threads``
  lifetimes form a cohort, every lifetime of a cohort gathers its buffers
  from the cohort-start matrices, lifetimes run independently (this class
  processes them depth-first, one at a time -- the loop reference), and
  per-row deltas are summed at cohort end.  The schedule, step kernel and
  write-back live in :mod:`repro.embedding.vectorized` and are shared
  with the lock-step backend, which is what makes ``backend="loop"`` and
  ``backend="vectorized"`` bit-identical under this protocol.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple

import numpy as np

from repro.embedding.model import sigmoid
from repro.embedding.sgns import BaseLearner
from repro.embedding.windows import iter_windows


class DSGLLearner(BaseLearner):
    """Multi-window shared-negatives learner with local buffers."""

    name = "dsgl"

    def _lockstep_batches(
        self, chunk: List[np.ndarray]
    ) -> Iterator[List[Tuple[int, np.ndarray]]]:
        """Advance the chunk's window streams in lock-step (Fig. 3(d))."""
        streams = [iter_windows(w, self.config.window) for w in chunk]
        while streams:
            batch: List[Tuple[int, np.ndarray]] = []
            survivors = []
            for stream in streams:
                item = next(stream, None)
                if item is not None:
                    batch.append(item)
                    survivors.append(stream)
            streams = survivors
            if batch:
                yield batch

    def train_walks(self, walks: Sequence[np.ndarray], lr: float) -> int:
        if self.neg_stream is not None:
            return self._train_walks_shared(walks, lr)
        return self._train_walks_cluster(walks, lr)

    def _train_walks_shared(self, walks: Sequence[np.ndarray],
                            lr: float) -> int:
        """Concurrent-lifetime reference: one lifetime at a time.

        Plans each lifetime on demand (mirroring how the loop walk engine
        computes acceptance probabilities on demand while the batch engine
        precomputes the whole table), runs its multi-window batches
        sequentially through the shared step kernel, and stashes the
        buffer deltas; the slice ends with the same
        :func:`~repro.embedding.vectorized.merge_deltas` reconciliation
        the lock-step backend applies, so the result is bit-identical.
        """
        from repro.embedding.vectorized import merge_deltas, plan_dsgl_slice

        cfg = self.config
        ops = self.ops  # always the NumPy reference (loop backend)
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

    def _train_walks_cluster(self, walks: Sequence[np.ndarray],
                             lr: float) -> int:
        """Legacy sequential-lifetime path (stateful per-machine RNG)."""
        cfg = self.config
        phi_in, phi_out = self.model.phi_in, self.model.phi_out
        k = cfg.negatives
        group = cfg.multi_windows
        tokens = 0
        for start in range(0, len(walks), group):
            chunk = [self._rows(w) for w in walks[start:start + group]]
            chunk_tokens = int(sum(w.size for w in chunk))
            if chunk_tokens == 0:
                continue
            tokens += chunk_tokens

            # ---- Lifetime setup: local buffers (Improvement-I) -------- #
            chunk_concat = np.concatenate(chunk)
            ctx_rows = np.unique(chunk_concat)
            ctx_buffer = phi_in[ctx_rows].copy()
            # Negative buffer: K negatives per walk position, pre-sampled
            # for the whole lifetime ("K x L negative samples", §4.2).
            neg_pool = self._negatives(k * chunk_tokens)
            out_rows = np.unique(np.concatenate([chunk_concat, neg_pool]))
            out_buffer = phi_out[out_rows].copy()
            pool_pos = 0

            # ---- Batched updates (Improvement-II) --------------------- #
            for batch in self._lockstep_batches(chunk):
                b = len(batch)
                targets = np.fromiter((t for t, _ in batch), dtype=np.int64,
                                      count=b)
                negs = neg_pool[pool_pos:pool_pos + k]
                pool_pos += k
                batch_out = np.concatenate([targets, negs])  # (b + k,)
                ctx_list = [ctx for _, ctx in batch]
                ctx_concat = np.concatenate(ctx_list)
                sizes = [c.size for c in ctx_list]

                # Buffer-space indices (unique arrays are sorted).
                ctx_idx = np.searchsorted(ctx_rows, ctx_concat)
                out_idx = np.searchsorted(out_rows, batch_out)

                ctx_vecs = ctx_buffer[ctx_idx]            # (M, d)
                out_vecs = out_buffer[out_idx]            # (b+k, d)
                scores = sigmoid(ctx_vecs @ out_vecs.T)   # (M, b+k)
                # Window i's contexts label its own target 1; the other
                # windows' targets act as extra negatives (label 0).
                labels = np.zeros_like(scores)
                offset = 0
                for i, size in enumerate(sizes):
                    labels[offset:offset + size, i] = 1.0
                    offset += size
                grad = (labels - scores) * lr
                ctx_buffer[ctx_idx] = ctx_vecs + grad @ out_vecs
                out_buffer[out_idx] = out_vecs + grad.T @ ctx_vecs

            # ---- Lifetime end: write buffers back ---------------------- #
            phi_in[ctx_rows] = ctx_buffer
            phi_out[out_rows] = out_buffer
        return tokens
