"""Embedding model storage and training configuration.

The Skip-Gram model keeps two matrices (paper §4.2): ``phi_in`` holding the
vectors of context nodes and ``phi_out`` holding target/negative vectors.
Rows are in **frequency order** (the vocabulary's row space), which is
DSGL's Improvement-I; conversion back to node-id space happens once at the
end of training.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.embedding.ops import TORCH_INSTALL_HINT, torch_available
from repro.embedding.schedules import SCHEDULES
from repro.embedding.vocab import Vocabulary
from repro.runtime.executor import (
    default_backing,
    default_execution,
    default_workers,
    resolve_backing,
    resolve_execution,
)
from repro.utils.rng import SeedLike, default_rng
from repro.utils.validation import check_positive


#: Learners whose update schedule cannot be batched: pSGNScc's partner
#: lookup consults an inverted index that mutates as windows are consumed,
#: so (like the walk engine's ``fullpath`` mode) it stays on the loop
#: backend and its index overhead remains measurable.
LOOP_ONLY_LEARNERS = frozenset({"psgnscc"})


@dataclass
class TrainConfig:
    """Hyper-parameters of the feature-learning phase.

    Defaults follow the paper's §6.1 settings scaled to stand-in size:
    window ``w = 10``, ``K = 5`` negative samples, 2 multi-windows, with a
    token-based synchronisation period replacing the paper's 0.1-second
    wall-clock period (deterministic at any machine speed).

    Execution knobs mirror :class:`repro.walks.engine.WalkConfig`:

    * ``backend`` selects how a machine's slice of walks is trained:
      ``"vectorized"`` runs the batched learners of
      :mod:`repro.embedding.vectorized` (window extraction, buffer
      indexing and negative draws hoisted into NumPy precomputation,
      update math unchanged to the bit); ``"loop"`` runs the per-window
      reference learners; ``"torch"`` runs the *same* batched slice
      plans on torch tensors through the :mod:`repro.embedding.ops`
      seam (byte-equal to NumPy on CPU, golden-AUC-gated float32 on
      CUDA; requires the optional ``torch`` dependency -- validated
      eagerly here, not deep inside a worker); ``"auto"`` (default)
      picks vectorized wherever semantics match
      (``sgns``/``pword2vec``/``dsgl``) and loop for ``psgnscc``.
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
    #: "auto" | "vectorized" | "loop" | "torch" -- see the class docstring.
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
    #: "serial" | "process" | "pipeline": where each sync period's
    #: per-machine slices train.  ``"process"`` dispatches every machine's
    #: slice to a worker process over shared-memory replica matrices
    #: (:class:`repro.runtime.executor.ProcessSliceTrainer`); slices touch
    #: disjoint replicas and all negative draws are counter-based, so the
    #: result is bit-identical to serial execution.  ``"pipeline"``
    #: selects the streaming system dataflow
    #: (:mod:`repro.runtime.pipeline`); for the training phase itself it
    #: resolves to the process slice path -- the trainer is the
    #: pipeline's *consumer*, starting when the corpus is finished
    #: (:class:`repro.walks.corpus.CorpusFeed`), not a producer with
    #: anything of its own to overlap.  Default from ``REPRO_EXECUTION``.
    execution: str = field(default_factory=default_execution)
    #: Worker processes under execution="process"/"pipeline"; 0 = auto
    #: (min(4, cores)).
    workers: int = field(default_factory=default_workers)
    #: "shm" | "mmap" -- transport of the shared corpus/shard blocks the
    #: slice workers attach (replica matrices always stay shm: workers
    #: write them).  Default from ``REPRO_BACKING`` ("shm" when unset).
    backing: str = field(default_factory=default_backing)
    #: Spill root under backing="mmap" (None: ``REPRO_SPILL_DIR`` or the
    #: system temp dir).
    spill_dir: Optional[str] = None

    def __post_init__(self) -> None:
        check_positive("dim", self.dim)
        check_positive("window", self.window)
        check_positive("negatives", self.negatives)
        check_positive("epochs", self.epochs)
        check_positive("lr", self.lr)
        check_positive("min_lr", self.min_lr, allow_zero=True)
        check_positive("multi_windows", self.multi_windows)
        # A non-positive period never advances a shard cursor, so the
        # trainer's round loop would spin forever.
        check_positive("sync_period_tokens", self.sync_period_tokens)
        if self.sync_mode not in ("hotness", "full", "none"):
            raise ValueError(f"unknown sync_mode {self.sync_mode!r}")
        if self.lr_schedule not in SCHEDULES:
            raise ValueError(
                f"unknown lr_schedule {self.lr_schedule!r}; "
                f"options: {sorted(SCHEDULES)}"
            )
        if self.subsample < 0:
            raise ValueError(f"subsample must be >= 0, got {self.subsample}")
        check_positive("dsgl_threads", self.dsgl_threads)
        if self.backend not in ("auto", "vectorized", "loop", "torch"):
            raise ValueError(
                f"unknown backend {self.backend!r}; options: 'auto', "
                "'vectorized', 'loop', 'torch'")
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
                    self.execution in ("process", "pipeline"):
                raise ValueError(
                    "backend='torch' on CUDA requires execution='serial': "
                    "CUDA contexts cannot be shared with forked slice "
                    "workers (CPU torch composes with every executor)")
        resolve_execution(self.execution)
        resolve_backing(self.backing)
        if self.workers < 0:
            raise ValueError(f"workers must be non-negative, got {self.workers}")

    def resolved_backend(self, learner: str = "dsgl") -> str:
        """The backend ``"auto"`` resolves to for ``learner``.

        Raises for combinations that cannot hold the parity contract:
        pSGNScc's mutable inverted-index lookup is inherently sequential
        (its overhead is part of what §4.1 measures), so it cannot be
        vectorized (or run on torch) -- exactly like the walk engine's
        ``fullpath`` mode.
        """
        if self.backend in ("vectorized", "torch") and \
                learner in LOOP_ONLY_LEARNERS:
            raise ValueError(
                f"learner {learner!r} cannot be batched: its per-window "
                "partner lookup mutates state between windows; use "
                "backend='auto' or 'loop'"
            )
        if self.backend != "auto":
            return self.backend
        return "loop" if learner in LOOP_ONLY_LEARNERS else "vectorized"

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

    def resolved_execution(self) -> str:
        """The execution mode training actually runs under.

        ``"process"`` holds for every learner: all their randomness flows
        through the counter streams.  ``"pipeline"`` resolves to
        ``"process"``: the streaming overlap lives in the system-level
        dataflow (partition ∥ sampling, flush ∥ sampling), while slice
        training itself always runs downstream of the finished corpus --
        the frequency-ordered vocabulary and the unigram^0.75 negative
        table are global corpus statistics, so no slice can train before
        the occurrence counters are final without changing bytes.
        """
        return "process" if self.execution == "pipeline" else self.execution


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
