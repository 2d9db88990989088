"""Random-walk subsystem: kernels, InCoM measurement, termination, engine.

Implements the paper's sampler (§2.1, §3.1): information-oriented HuGE
walks with either InCoM (DistGER) or full-path (HuGE-D) measurement, plus
the routine DeepWalk/node2vec kernels KnightKing runs, all scheduled over
the simulated cluster with byte-accurate message accounting.  Every
kernel implements one interface (:mod:`repro.walks.kernels`: built by
``make_kernel``, a batched trial over its own tables, a scalar
reference).  Sampled walks land in the flat
:class:`~repro.walks.corpus.Corpus` (one contiguous token block +
monotone offsets, list API preserved as zero-copy views); its
finished-event, :class:`~repro.walks.corpus.CorpusFeed`, is what the
streaming ``execution="pipeline"`` runtime hands to the trainer.
"""

from repro.walks.corpus import Corpus, CorpusFeed
from repro.walks.diagnostics import (
    CorpusQuality,
    compare_corpora,
    corpus_quality,
    entropy_trace,
    traversed_edges,
)
from repro.walks.engine import DistributedWalkEngine, WalkConfig, WalkResult
from repro.walks.kernels import (
    KERNELS,
    DeepWalkKernel,
    HuGEKernel,
    HuGEPlusKernel,
    Node2VecKernel,
    make_kernel,
)
from repro.walks.termination import WalkCountRule, WalkLengthRule
from repro.walks.vectorized import BatchWalkRunner
from repro.walks.walker import WalkStats

__all__ = [
    "BatchWalkRunner",
    "Corpus",
    "CorpusFeed",
    "CorpusQuality",
    "DeepWalkKernel",
    "DistributedWalkEngine",
    "HuGEKernel",
    "HuGEPlusKernel",
    "KERNELS",
    "Node2VecKernel",
    "WalkConfig",
    "WalkCountRule",
    "WalkLengthRule",
    "WalkResult",
    "WalkStats",
    "compare_corpora",
    "corpus_quality",
    "entropy_trace",
    "make_kernel",
    "traversed_edges",
]
