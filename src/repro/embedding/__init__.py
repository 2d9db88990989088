"""Embedding-learning subsystem (the paper's learner, §4).

Implements DSGL -- frequency-ordered global matrices with local buffers,
multi-window shared negative sampling, and hotness-block synchronisation --
alongside the baselines it is measured against: vanilla SGNS, Intel's
Pword2vec, and pSGNScc.

Every learner (except the inherently sequential pSGNScc) runs on two
execution backends selected by ``TrainConfig.backend``: the per-window
``"loop"`` reference and the batched ``"vectorized"`` engine of
:mod:`repro.embedding.vectorized`, which produce bit-identical embeddings
because both draw negatives from the same counter-based per-machine
streams.
"""

from repro.embedding.checkpoint import load_model, save_model
from repro.embedding.convergence import (
    CurvePoint,
    QualityTimeCurve,
    convergence_report,
    dominates,
    quality_time_curve,
    time_to_quality,
)
from repro.embedding.dsgl import DSGLLearner
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
from repro.embedding.sgns import (
    BaseLearner,
    Pword2vecLearner,
    SGNSLearner,
    linear_lr,
)
from repro.embedding.similarity import (
    analogy,
    cosine_similarity,
    similarity_matrix,
    top_k_similar,
)
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
    VECTORIZED_LEARNERS,
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
    "DSGLLearner",
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
    "Pword2vecLearner",
    "QualityTimeCurve",
    "SCHEDULES",
    "SGNSLearner",
    "SyncStrategy",
    "TrainConfig",
    "TrainResult",
    "VECTORIZED_LEARNERS",
    "VectorizedDSGLLearner",
    "VectorizedPword2vecLearner",
    "VectorizedSGNSLearner",
    "Vocabulary",
    "analogy",
    "average_models",
    "convergence_report",
    "cosine_similarity",
    "count_windows",
    "count_windows_flat",
    "dominates",
    "iter_windows",
    "linear_lr",
    "load_model",
    "make_schedule",
    "make_sync",
    "quality_time_curve",
    "save_model",
    "sigmoid",
    "similarity_matrix",
    "time_to_quality",
    "top_k_similar",
    "window_batches",
]
