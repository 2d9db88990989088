"""Embedding model storage and training configuration.

The Skip-Gram model keeps two matrices (paper §4.2): ``phi_in`` holding the
vectors of context nodes and ``phi_out`` holding target/negative vectors.
Rows are in **frequency order** (the vocabulary's row space), which is
DSGL's Improvement-I; conversion back to node-id space happens once at the
end of training.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.embedding.ops import TORCH_INSTALL_HINT, torch_available
from repro.embedding.schedules import SCHEDULES
from repro.embedding.vocab import Vocabulary
from repro.runtime.executor import ExecutionContext
from repro.utils.rng import SeedLike, default_rng
from repro.utils.validation import check_integral, check_positive


@dataclass
class TrainConfig:
    """Hyper-parameters of the feature-learning phase.

    Defaults follow the paper's §6.1 settings scaled to stand-in size:
    window ``w = 10``, ``K = 5`` negative samples, 2 multi-windows, with a
    token-based synchronisation period replacing the paper's 0.1-second
    wall-clock period (deterministic at any machine speed).

    Every count below (``dim``, ``window``, ``negatives``, ``epochs``,
    ``multi_windows``, ``sync_period_tokens``, ``dsgl_threads``) must be
    a positive integer and ``subsample`` a finite value ``>= 0``;
    violations raise ``ValueError`` naming the field here, before any
    partitioning or sampling is paid for.

    The learners themselves are fixed per learner name
    (:data:`repro.embedding.trainer.LEARNERS`); the one device knob is:

    * ``backend`` -- ``"auto"`` (default) runs the array math on NumPy;
      ``"torch"`` runs the *same* batched slice plans on torch tensors
      through the :mod:`repro.embedding.ops` seam (byte-equal to NumPy
      on CPU, golden-AUC-gated float32 on CUDA; requires the optional
      ``torch`` dependency -- validated eagerly here, not deep inside a
      worker).  The loop-only ``psgnscc`` learner rejects ``"torch"``.
    * ``torch_device`` / ``torch_dtype`` shape the torch backend:
      device ``"auto"`` prefers CUDA when available, dtype ``"auto"``
      resolves to float64 on CPU (the byte-parity tier) and float32 on
      CUDA (the throughput tier).

    Negative-sample randomness has one source: counter-based per-machine
    streams from :mod:`repro.utils.rng`, whose draws are independent of
    batching -- the trainer parity guarantee.
    """

    dim: int = 64
    window: int = 10
    negatives: int = 5
    epochs: int = 2
    lr: float = 0.025
    min_lr: float = 1e-4
    # Learning-rate schedule over training progress; "linear" is word2vec's
    # default decay (see repro.embedding.schedules for the alternatives).
    lr_schedule: str = "linear"
    multi_windows: int = 2
    # Frequent periods keep replica divergence small, which is what makes
    # gradient-averaging reconciliation sound (Pword2vec syncs every 0.1 s
    # for the same reason; tokens replace wall-clock for determinism).
    sync_period_tokens: int = 2_000
    sync_mode: str = "hotness"  # hotness | full | none
    # word2vec's frequent-token subsampling threshold ``t``: occurrences of
    # node v are kept with probability min(1, sqrt(t / f(v))) where f(v) is
    # its corpus frequency, decided per (epoch, corpus position) by a
    # counter stream.  0 disables (the default -- the paper does not
    # subsample; exposed as a standard word2vec option).
    subsample: float = 0.0
    seed: int = 0
    #: "auto" | "torch" -- see the class docstring.
    backend: str = "auto"
    #: Device of the torch backend: "auto" (CUDA when available, else
    #: CPU), "cpu", or "cuda".  Ignored by the other backends.
    torch_device: str = "auto"
    #: Buffer dtype of the torch backend: "auto" (float64 on CPU --
    #: byte-parity tier -- float32 on CUDA), "float32", or "float64".
    torch_dtype: str = "auto"
    #: Simulated Hogwild thread-pool width of DSGL: lifetimes run
    #: concurrently (slice-start buffer gathers, delta-sum
    #: reconciliation) in cohorts of this many lifetimes, and cohorts are
    #: sequential.  Models the paper's per-machine thread count; wider
    #: cohorts batch better but leave hot rows updated from staler state,
    #: exactly like adding Hogwild threads does.  The quality/speed
    #: frontier is swept by
    #: ``benchmarks/bench_ablation_dsgl_threads.py``, which calibrates
    #: this default.
    dsgl_threads: int = 8
    #: Where each sync period's per-machine slices train
    #: (:meth:`ExecutionContext.slice_trainer`).  Off ``"serial"`` every
    #: machine's slice goes to a worker process over shared-memory
    #: replica matrices; slices touch disjoint replicas and all negative
    #: draws are counter-based, so the result is bit-identical to serial
    #: execution.  ``backing`` is the transport of the shared corpus/shard
    #: blocks (replica matrices always stay shm: workers write them).
    context: ExecutionContext = field(default_factory=ExecutionContext)

    def __post_init__(self) -> None:
        # These size arrays, windows and loop bounds; a non-positive sync
        # period never advances a shard cursor, so the trainer's round
        # loop would spin forever.
        for name in ("dim", "window", "negatives", "epochs",
                     "multi_windows", "sync_period_tokens", "dsgl_threads"):
            check_integral(name, getattr(self, name))
            check_positive(name, getattr(self, name))
        check_positive("lr", self.lr)
        check_positive("min_lr", self.min_lr, allow_zero=True)
        if self.sync_mode not in ("hotness", "full", "none"):
            raise ValueError(f"unknown sync_mode {self.sync_mode!r}")
        if self.lr_schedule not in SCHEDULES:
            raise ValueError(
                f"unknown lr_schedule {self.lr_schedule!r}; "
                f"options: {sorted(SCHEDULES)}"
            )
        # NaN compares false both ways: "< 0" alone would let it through
        # and train on zero tokens.
        check_positive("subsample", self.subsample, allow_zero=True)
        if self.backend not in ("auto", "torch"):
            raise ValueError(
                f"unknown backend {self.backend!r}; options: 'auto', "
                "'torch'")
        if self.torch_device not in ("auto", "cpu", "cuda"):
            raise ValueError(
                f"unknown torch_device {self.torch_device!r}; options: "
                "'auto', 'cpu', 'cuda'")
        if self.torch_dtype not in ("auto", "float32", "float64"):
            raise ValueError(
                f"unknown torch_dtype {self.torch_dtype!r}; options: "
                "'auto', 'float32', 'float64'")
        if self.backend == "torch":
            # Eager availability / device validation: a missing optional
            # dependency must fail here, at config-resolve time, with the
            # install hint -- not as an opaque crash deep inside a trainer
            # worker process (the process/pipeline executors construct
            # learners from this already-validated config).
            if not torch_available():
                raise ValueError(
                    f"backend='torch' requires PyTorch: {TORCH_INSTALL_HINT}")
            if self.resolved_torch_device() == "cuda" and \
                    self.context.execution != "serial":
                raise ValueError(
                    "backend='torch' on CUDA requires execution='serial': "
                    "CUDA contexts cannot be shared with forked slice "
                    "workers (CPU torch composes with every executor)")

    def resolved_torch_device(self) -> str:
        """The device the torch backend runs on (``"cpu"``/``"cuda"``).

        ``"auto"`` prefers CUDA when torch reports one.  Only meaningful
        (and only callable without torch installed) when ``backend`` is
        ``"torch"`` -- construction already validated availability.
        """
        if self.torch_device != "auto":
            return self.torch_device
        import torch

        return "cuda" if torch.cuda.is_available() else "cpu"

    def resolved_torch_dtype(self) -> str:
        """Buffer dtype of the torch backend.

        ``"auto"`` picks float64 on CPU -- the byte-parity tier pinned by
        ``tests/test_torch_backend_parity.py`` -- and float32 on CUDA,
        where throughput is the point and quality is gated on the golden
        AUC band instead of bytes.
        """
        if self.torch_dtype != "auto":
            return self.torch_dtype
        return "float64" if self.resolved_torch_device() == "cpu" else \
            "float32"


class EmbeddingModel:
    """One machine's replica of the two global matrices (row space)."""

    def __init__(self, vocab: Vocabulary, dim: int, seed: SeedLike = 0) -> None:
        rng = default_rng(seed)
        n = vocab.size
        # word2vec initialisation: small uniform input vectors, zero outputs.
        self.phi_in = ((rng.random((n, dim)) - 0.5) / dim).astype(np.float32)
        self.phi_out = np.zeros((n, dim), dtype=np.float32)
        self.vocab = vocab
        self.dim = dim

    def clone(self) -> "EmbeddingModel":
        """Deep copy -- used to give each machine an identical replica."""
        copy = EmbeddingModel.__new__(EmbeddingModel)
        copy.phi_in = self.phi_in.copy()
        copy.phi_out = self.phi_out.copy()
        copy.vocab = self.vocab
        copy.dim = self.dim
        return copy

    def embeddings_node_space(self) -> np.ndarray:
        """Input vectors re-ordered to node-id space (the final output)."""
        return self.vocab.reorder_to_node_space(self.phi_in)

    def memory_bytes(self) -> int:
        return int(self.phi_in.nbytes + self.phi_out.nbytes)


def average_models(models: List[EmbeddingModel]) -> EmbeddingModel:
    """Average all replicas (the final full-model reduction)."""
    if not models:
        raise ValueError("no models to average")
    out = models[0].clone()
    if len(models) == 1:
        return out
    out.phi_in = np.mean([m.phi_in for m in models], axis=0).astype(np.float32)
    out.phi_out = np.mean([m.phi_out for m in models], axis=0).astype(np.float32)
    return out


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically-clipped logistic function (word2vec clips to ±6)."""
    return 1.0 / (1.0 + np.exp(-np.clip(x, -6.0, 6.0)))
