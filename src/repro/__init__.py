"""DistGER reproduction: distributed graph embedding with
information-oriented random walks (Fang et al., VLDB 2023).

A from-scratch, pure-Python implementation of the paper's system and every
substrate it depends on:

* ``repro.graph``      -- CSR graphs, generators, dataset stand-ins
* ``repro.runtime``    -- simulated cluster, byte-accurate message
                          accounting, process executors
* ``repro.partition``  -- MPGP and all baselines (LDG, FENNEL, METIS-like,
                          KnightKing workload balancing)
* ``repro.walks``      -- HuGE information-oriented walks with InCoM O(1)
                          measurement, node2vec/DeepWalk kernels
* ``repro.embedding``  -- DSGL, Pword2vec, pSGNScc, SGNS learners with
                          hotness-block synchronisation
* ``repro.systems``    -- end-to-end DistGER, HuGE-D, KnightKing, PBG,
                          DistDGL, DistGER-GPU
* ``repro.tasks``      -- link prediction, multi-label classification,
                          clustering, recommendation, grid search
* ``repro.serving``    -- online half: shared/mmap embedding store,
                          batched deterministic top-k, query workers
* ``repro.dynamic``    -- dynamic graphs: delta-CSR edge streams, walk
                          invalidation, warm-start re-embedding

Quickstart::

    from repro import embed_graph, load_dataset
    ds = load_dataset("LJ")
    result = embed_graph(ds.graph, method="distger")
    print(result.embeddings.shape, result.wall_seconds)
"""

from repro.api import (
    apply_edge_stream,
    available_methods,
    embed_graph,
    serve_embeddings,
)
from repro.graph.csr import CSRGraph
from repro.graph.datasets import load as load_dataset
from repro.graph.datasets import load_suite
from repro.persona import (
    PersonaConfig,
    PersonaResult,
    embed_persona_graph,
    persona_pair_scores,
)
from repro.systems import (
    ALL_SYSTEMS,
    SystemComparison,
    DistDGL,
    DistGER,
    DistGERGPU,
    HuGED,
    KnightKing,
    PBG,
    SystemResult,
    compare_systems,
)

__version__ = "1.0.0"

__all__ = [
    "ALL_SYSTEMS",
    "CSRGraph",
    "DistDGL",
    "DistGER",
    "DistGERGPU",
    "HuGED",
    "KnightKing",
    "PBG",
    "PersonaConfig",
    "PersonaResult",
    "SystemComparison",
    "SystemResult",
    "__version__",
    "apply_edge_stream",
    "available_methods",
    "compare_systems",
    "embed_graph",
    "embed_persona_graph",
    "load_dataset",
    "load_suite",
    "persona_pair_scores",
    "serve_embeddings",
]
