"""Embedding-learning subsystem (the paper's learner, §4).

Implements DSGL -- frequency-ordered global matrices with local buffers,
multi-window shared negative sampling, and hotness-block synchronisation --
alongside the baselines it is measured against: vanilla SGNS, Intel's
Pword2vec, and pSGNScc.

Every learner except the inherently sequential pSGNScc is a batched
learner of :mod:`repro.embedding.vectorized`; the per-window references
they are verified against (bit-identical embeddings, because both draw
negatives from the same counter-based per-machine streams) live in
``tests/oracles/embedding.py``.
"""

from repro.embedding.convergence import (
    CurvePoint,
    QualityTimeCurve,
    convergence_report,
    dominates,
    quality_time_curve,
    time_to_quality,
)
from repro.embedding.model import (
    EmbeddingModel,
    TrainConfig,
    average_models,
    sigmoid,
)
from repro.embedding.schedules import (
    SCHEDULES,
    ConstantSchedule,
    CosineSchedule,
    InverseSqrtSchedule,
    LinearDecaySchedule,
    make_schedule,
)
from repro.embedding.negative import NegativeSampler
from repro.embedding.psgnscc import PSGNSccLearner
from repro.embedding.sgns import BaseLearner, linear_lr
from repro.embedding.similarity import top_k_similar
from repro.embedding.sync import (
    FullSync,
    HotnessBlockSync,
    NoSync,
    SyncStrategy,
    make_sync,
)
from repro.embedding.trainer import (
    LEARNERS,
    DistributedTrainer,
    TrainResult,
)
from repro.embedding.vectorized import (
    VectorizedDSGLLearner,
    VectorizedPword2vecLearner,
    VectorizedSGNSLearner,
)
from repro.embedding.vocab import Vocabulary
from repro.embedding.windows import (
    count_windows,
    count_windows_flat,
    iter_windows,
    window_batches,
)

__all__ = [
    "BaseLearner",
    "ConstantSchedule",
    "CosineSchedule",
    "CurvePoint",
    "DistributedTrainer",
    "EmbeddingModel",
    "FullSync",
    "HotnessBlockSync",
    "InverseSqrtSchedule",
    "LEARNERS",
    "LinearDecaySchedule",
    "NegativeSampler",
    "NoSync",
    "PSGNSccLearner",
    "QualityTimeCurve",
    "SCHEDULES",
    "SyncStrategy",
    "TrainConfig",
    "TrainResult",
    "VectorizedDSGLLearner",
    "VectorizedPword2vecLearner",
    "VectorizedSGNSLearner",
    "Vocabulary",
    "average_models",
    "convergence_report",
    "count_windows",
    "count_windows_flat",
    "dominates",
    "iter_windows",
    "linear_lr",
    "make_schedule",
    "make_sync",
    "quality_time_curve",
    "sigmoid",
    "time_to_quality",
    "top_k_similar",
    "window_batches",
]
