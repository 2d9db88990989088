"""Random-walk subsystem: kernels, InCoM measurement, termination, engine.

Implements the paper's sampler (§2.1, §3.1): information-oriented HuGE
walks with either InCoM (DistGER) or full-path (HuGE-D) measurement, plus
the routine DeepWalk/node2vec kernels KnightKing runs, all scheduled over
the simulated cluster with byte-accurate message accounting.  The
alias-table samplers and the vectorised batch walkers provide the
non-distributed fast paths (original-node2vec tables and the pure-NumPy
routine corpus).  Sampled walks land in the flat
:class:`~repro.walks.corpus.Corpus` (one contiguous token block +
monotone offsets, list API preserved as zero-copy views); its
finished-event, :class:`~repro.walks.corpus.CorpusFeed`, is what the
streaming ``execution="pipeline"`` runtime hands to the trainer.
"""

from repro.walks.alias_sampling import (
    FirstOrderAliasSampler,
    Node2VecAliasKernel,
    SecondOrderAliasSampler,
    second_order_table_entries,
)
from repro.walks.corpus import Corpus, CorpusFeed
from repro.walks.diagnostics import (
    CorpusQuality,
    compare_corpora,
    corpus_quality,
    entropy_trace,
    traversed_edges,
)
from repro.walks.engine import DistributedWalkEngine, WalkConfig, WalkResult
from repro.walks.incom import (
    FullPathWalkMeasure,
    IncrementalWalkMeasure,
    make_measure,
)
from repro.walks.kernels import (
    KERNELS,
    DeepWalkKernel,
    HuGEKernel,
    HuGEPlusKernel,
    Node2VecKernel,
    make_kernel,
)
from repro.walks.reference import (
    first_order_stationary_distribution,
    huge_acceptance_matrix,
    huge_effective_transition_matrix,
    node2vec_transition_distribution,
    stationary_distribution_power_iteration,
)
from repro.walks.termination import WalkCountRule, WalkLengthRule
from repro.walks.vectorized import (
    BatchWalkRunner,
    batch_walk_matrix,
    empirical_transition_matrix,
    vectorized_routine_corpus,
)
from repro.walks.walker import Walker, WalkStats

# The alias kernel is a drop-in node2vec alternative; registering it here
# (rather than in kernels.py) keeps kernels.py free of the table machinery
# while making it reachable through make_kernel()/the systems' generic API.
KERNELS["node2vec-alias"] = Node2VecAliasKernel

__all__ = [
    "BatchWalkRunner",
    "Corpus",
    "CorpusFeed",
    "CorpusQuality",
    "DeepWalkKernel",
    "DistributedWalkEngine",
    "FirstOrderAliasSampler",
    "FullPathWalkMeasure",
    "HuGEKernel",
    "HuGEPlusKernel",
    "IncrementalWalkMeasure",
    "KERNELS",
    "Node2VecAliasKernel",
    "Node2VecKernel",
    "SecondOrderAliasSampler",
    "WalkConfig",
    "WalkCountRule",
    "WalkLengthRule",
    "WalkResult",
    "WalkStats",
    "Walker",
    "batch_walk_matrix",
    "compare_corpora",
    "corpus_quality",
    "empirical_transition_matrix",
    "entropy_trace",
    "first_order_stationary_distribution",
    "huge_acceptance_matrix",
    "huge_effective_transition_matrix",
    "make_kernel",
    "make_measure",
    "node2vec_transition_distribution",
    "second_order_table_entries",
    "stationary_distribution_power_iteration",
    "traversed_edges",
    "vectorized_routine_corpus",
]
