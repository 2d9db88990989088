"""Model synchronisation across learner machines (paper §4.2, Improvement-III).

Each machine trains on its local sub-corpus against a full model replica
and periodically synchronises with the other ``m − 1`` machines.  Relative
to the last synchronised state ``base``, a periodic sync **averages** the
selected rows, ``base + mean_machines (replica_m − base)`` (Pword2vec's
allreduce, stable for rows many machines contend for), and the final
reduction **delta-accumulates** every row (parameter-server semantics),

    ``base + Σ_machines (replica_m − base)``

so every machine's gradient contribution survives -- this is the
distributed analogue of Hogwild's lock-free adds, and unlike averaging it
does not divide effective learning rates by the machine count.

Three strategies select *which rows* reconcile per period:

* :class:`FullSync` -- every row, every period: traffic ``O(|V| · d · m)``
  (the paper's 102-billion-message example for 100 M nodes).
* :class:`HotnessBlockSync` -- DistGER's scheme: rows are grouped into
  hotness blocks (equal corpus frequency; contiguous because the matrices
  are frequency-ordered) and **one sampled row per block** reconciles per
  period.  Hot nodes live in many tiny blocks near the top, so they sync
  often; the long cold tail shares a few huge blocks and syncs rarely.
  Traffic is ``O(ocn_max · d · m)`` with ``ocn_max << |V|``.
* :class:`NoSync` -- nothing until the final reduction (ablation).

A final :meth:`finalize` pass delta-sums every row once, so no machine's
work is ever lost.  Traffic is charged to the cluster metrics via
:class:`repro.runtime.message.SyncMessage` sizes.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.embedding.model import EmbeddingModel
from repro.runtime.message import SyncMessage
from repro.runtime.metrics import ClusterMetrics


class SyncStrategy:
    """Stateful reconciliation of machine replicas.

    Call :meth:`start` once with the (identical) initial replicas, then
    :meth:`sync` per period and :meth:`finalize` at the end of training.
    """

    name = "base"

    def __init__(self) -> None:
        self._base_in: Optional[np.ndarray] = None
        self._base_out: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #

    def start(self, replicas: List[EmbeddingModel]) -> None:
        """Snapshot the shared starting point (replicas must be equal)."""
        if not replicas:
            raise ValueError("no replicas to synchronise")
        self._base_in = replicas[0].phi_in.copy()
        self._base_out = replicas[0].phi_out.copy()

    def sync(
        self,
        replicas: List[EmbeddingModel],
        rng: np.random.Generator,
        metrics: Optional[ClusterMetrics] = None,
    ) -> None:
        rows = self._select_rows(replicas, rng)
        self._reconcile(replicas, rows, average=True)
        if replicas:
            self._charge(metrics, rows.size, replicas[0].dim, len(replicas))

    def finalize(
        self,
        replicas: List[EmbeddingModel],
        metrics: Optional[ClusterMetrics] = None,
    ) -> EmbeddingModel:
        """Reconcile every row once and return the final model.

        Uses delta accumulation: rows that only one machine touched since
        their last periodic sync (the common case under locality-sharded
        corpora) are adopted exactly; contested rows were kept aligned by
        the periodic syncs.
        """
        all_rows = np.arange(replicas[0].vocab.size, dtype=np.int64)
        self._reconcile(replicas, all_rows, average=False)
        self._charge(metrics, all_rows.size, replicas[0].dim, len(replicas))
        return replicas[0].clone()

    # ------------------------------------------------------------------ #

    def _select_rows(self, replicas, rng) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError

    def _reconcile(
        self,
        replicas: List[EmbeddingModel],
        rows: np.ndarray,
        average: bool,
    ) -> None:
        """Reconcile the selected rows across replicas and refresh ``base``.

        ``average`` (the periodic syncs): ``new = base + mean(replica −
        base)`` -- gradient averaging, stable for rows contested by many
        machines (this is Pword2vec's allreduce, and it is only sound with
        frequent periods).  Otherwise (:meth:`finalize`): ``new = base +
        Σ (replica − base)`` -- parameter-server delta accumulation, exact
        for rows touched by a single machine.
        """
        if rows.size == 0 or self._base_in is None:
            return
        if len(replicas) == 1:
            # Single machine: just refresh the base.
            self._base_in[rows] = replicas[0].phi_in[rows]
            self._base_out[rows] = replicas[0].phi_out[rows]
            return
        base_in = self._base_in[rows]
        base_out = self._base_out[rows]
        sum_in = sum(r.phi_in[rows] - base_in for r in replicas)
        sum_out = sum(r.phi_out[rows] - base_out for r in replicas)
        if average:
            sum_in = sum_in / len(replicas)
            sum_out = sum_out / len(replicas)
        new_in = base_in + sum_in
        new_out = base_out + sum_out
        for r in replicas:
            r.phi_in[rows] = new_in
            r.phi_out[rows] = new_out
        self._base_in[rows] = new_in
        self._base_out[rows] = new_out

    @staticmethod
    def _charge(
        metrics: Optional[ClusterMetrics],
        num_rows: int,
        dim: int,
        num_machines: int,
    ) -> None:
        """Each machine broadcasts its rows to the other m-1 machines
        (×2 matrices)."""
        if metrics is None or num_rows == 0 or num_machines < 2:
            return
        per_machine = SyncMessage(num_vectors=2 * num_rows, dim=dim).byte_size()
        metrics.record_sync(per_machine * num_machines * (num_machines - 1),
                            n_messages=num_machines * (num_machines - 1))


class FullSync(SyncStrategy):
    """Reconcile every vocabulary row each period: O(|V|·d·m) traffic."""

    name = "full"

    def _select_rows(self, replicas, rng) -> np.ndarray:
        return np.arange(replicas[0].vocab.size, dtype=np.int64)


class HotnessBlockSync(SyncStrategy):
    """One sampled row per hotness block each period: O(ocn_max·d·m)."""

    name = "hotness"

    def _select_rows(self, replicas, rng) -> np.ndarray:
        vocab = replicas[0].vocab
        rows: List[int] = []
        for start, end in vocab.hotness_blocks():
            # Rows with zero corpus occurrences are never updated by
            # training; syncing them is pure waste.
            if vocab.row_counts[start] == 0:
                continue
            rows.append(int(rng.integers(start, end)))
        return np.asarray(rows, dtype=np.int64)


class NoSync(SyncStrategy):
    """Replicas drift freely until the final reduction (ablation baseline)."""

    name = "none"

    def _select_rows(self, replicas, rng) -> np.ndarray:
        return np.empty(0, dtype=np.int64)


def make_sync(mode: str) -> SyncStrategy:
    """Factory for the ``sync_mode`` config field."""
    key = mode.lower()
    if key == "full":
        return FullSync()
    if key == "hotness":
        return HotnessBlockSync()
    if key == "none":
        return NoSync()
    raise KeyError(f"unknown sync mode {mode!r}; options: full, hotness, none")
