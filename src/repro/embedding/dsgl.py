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

Execution is the paper's concurrency model, run deterministically:
``dsgl_threads`` lifetimes form a cohort, every lifetime of a cohort
gathers its buffers from the cohort-start matrices, lifetimes run
independently (this class processes them depth-first, one at a time --
the loop reference), and per-row deltas are summed at cohort end.  The
schedule, step kernel and write-back live in
:mod:`repro.embedding.vectorized` and are shared with the lock-step
backend, which is what makes ``backend="loop"`` and
``backend="vectorized"`` bit-identical.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.embedding.sgns import BaseLearner


class DSGLLearner(BaseLearner):
    """Multi-window shared-negatives learner with local buffers."""

    name = "dsgl"

    def train_walks(self, walks: Sequence[np.ndarray], lr: float) -> int:
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
