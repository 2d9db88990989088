"""High-level public API.

Most users want one call::

    from repro import embed_graph
    result = embed_graph(graph, method="distger", num_machines=4, dim=64)
    vectors = result.embeddings

``method`` selects any of the reproduced systems; kernel and walk/train
overrides expose the generic API of paper §6.6 (e.g. DeepWalk or node2vec
walks with information-centric termination on DistGER).

Walk-based methods accept every :class:`repro.walks.engine.WalkConfig`
field as a flat keyword (``mu=0.9``, ``max_length=40``, ...).  Each phase
runs one engine: walks advance in lock-step NumPy rounds whatever the
mode (the mode picks only how a walk is measured -- InCoM, HuGE-D's
``fullpath`` recomputation, or a fixed length), MPGP scores from its
per-arc common-neighbour table, and
the trainer runs the batched learner of the chosen ``learner``.  The one
trainer knob is exposed under a prefixed name: ``train_backend="torch"``
(optional dependency, validated eagerly with an install hint) runs the
batched slice plans on torch tensors; its
``torch_device``/``torch_dtype`` knobs are TrainConfig fields and route
flat like any other -- the CPU tier holds the same byte-parity contract,
the CUDA tier is gated on task quality instead.

Where the work runs is one :class:`~repro.runtime.executor.
ExecutionContext` for the whole run, never a per-phase setting.  Its four
fields arrive as flat keywords and are resolved once (``REPRO_*``
environment defaults for the ones left out, then validation); the system
hands the same context to its partition, walk and training configs.
``embed_graph(g, execution="process", workers=4)`` pushes walk rounds and
training slices onto real worker processes (:mod:`repro.runtime.executor`),
each phase behind a barrier (walks: one per round).
``execution="pipeline"`` is the streaming superset: the same worker pools
and the same walk runner, plus overlap *between* phases -- the
partitioner runs concurrently with walk sampling, and walk rounds sample
ahead through a bounded queue while the parent flushes the previous
round into the corpus (:mod:`repro.runtime.pipeline`).  ``backing="mmap"`` materialises the
read-only blocks the workers attach -- the CSR arrays, the kernel
acceptance tables, MPGP's per-arc common-neighbour table, and the
flat corpus itself -- as file-backed ``.npy`` maps under ``spill_dir``
instead of ``/dev/shm`` segments, so resident memory stays bounded by
the working set rather than the corpus
(``benchmarks/bench_ooc_memory_ceiling.py`` gates the RSS ceiling).
Because all randomness is counter-based, every context reproduces serial
runs byte for byte -- it trades wall-clock and residency only
(``benchmarks/bench_fig5_pipeline_overlap.py`` gates the end-to-end
overlap speedup).

The walk corpus itself is a flat token block + offsets
(:class:`repro.walks.corpus.Corpus`), which is what keeps the process
hand-offs cheap: walk rounds compact straight into the block, the flat
arrays move into shared memory once at training start, and every sync
round ships only a ``(machine, lo, hi, lr)`` slice descriptor per
machine -- never a walk token, subsampled or not.  Process runs report
the shipped descriptor bytes in ``result.stats["ipc_task_bytes"]``.
Walk-based methods expose the sampled corpus as ``result.corpus``;
``result.corpus.save(path)`` persists it in the flat ``.npz`` format.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.embedding.model import TrainConfig
from repro.graph.csr import CSRGraph
from repro.runtime.executor import CONTEXT_FIELDS, ExecutionContext
from repro.systems.base import SystemResult
from repro.systems.distdgl import DistDGL
from repro.systems.gpu import DistGERGPU
from repro.systems.pbg import PBG
from repro.systems.walk_systems import DistGER, HuGED, KnightKing
from repro.walks.engine import WalkConfig

_METHODS = {
    "distger": DistGER,
    "huge-d": HuGED,
    "knightking": KnightKing,
    "pbg": PBG,
    "distdgl": DistDGL,
    "distger-gpu": DistGERGPU,
}

_WALK_METHODS = ("distger", "huge-d", "knightking", "distger-gpu")
#: Methods whose partitioner is MPGP (accepts ``partition_overrides``).
_MPGP_METHODS = ("distger", "distger-gpu")
# Flat hyper-parameter names accepted by embed_graph for the walk-based
# systems and routed into their train/walk override dicts, so callers (and
# grid searches) can write embed_graph(g, lr=0.05, mu=0.9) directly.
# TrainConfig's ``backend`` is only reachable as ``train_backend``.
_TRAIN_FIELDS = frozenset(
    f.name for f in dataclasses.fields(TrainConfig)
) - {"dim", "epochs", "seed", "backend", "context"}
_WALK_FIELDS = frozenset(
    f.name for f in dataclasses.fields(WalkConfig)
) - {"kernel", "mode", "context"}
#: Prefixed aliases: flat name -> (override dict, field).
_PREFIXED_FIELDS = {
    "train_backend": ("train_overrides", "backend"),
}


def _route_overrides(key: str, kwargs: dict) -> dict:
    """Move flat TrainConfig/WalkConfig fields into the override dicts and
    the flat execution values into one context."""
    if key not in _WALK_METHODS:
        # Fail with a clear message instead of the constructor's TypeError
        # when an execution knob reaches a non-walk system.
        rejected = [name for name in (*CONTEXT_FIELDS, *_PREFIXED_FIELDS)
                    if name in kwargs]
        if rejected:
            raise ValueError(
                f"method {key!r} has no execution context or trainer "
                f"backend; {', '.join(rejected)} applies to walk-based "
                f"methods only ({', '.join(_WALK_METHODS)})"
            )
        return kwargs
    overrides = {
        "train_overrides": dict(kwargs.pop("train_overrides", {}) or {}),
        "walk_overrides": dict(kwargs.pop("walk_overrides", {}) or {}),
        "partition_overrides": dict(
            kwargs.pop("partition_overrides", {}) or {}),
    }
    # Run-wide: the flat values build the one ExecutionContext.
    context = {name: kwargs.pop(name) for name in CONTEXT_FIELDS
               if name in kwargs}
    if context:
        if "context" in kwargs:
            raise ValueError(
                f"pass either context= or {', '.join(context)}, not both")
        kwargs["context"] = ExecutionContext(**context)
    for name in list(kwargs):
        if name in _PREFIXED_FIELDS:
            dest, field = _PREFIXED_FIELDS[name]
            overrides[dest][field] = kwargs.pop(name)
        elif name in _TRAIN_FIELDS:
            overrides["train_overrides"][name] = kwargs.pop(name)
        elif name in _WALK_FIELDS:
            # KnightKing's walk knobs (walk_length, walks_per_node, p, q)
            # are real constructor arguments; leave those in place.
            if key == "knightking" and name in (
                    "walk_length", "walks_per_node", "p", "q"):
                continue
            overrides["walk_overrides"][name] = kwargs.pop(name)
    if overrides["partition_overrides"] and key not in _MPGP_METHODS:
        raise ValueError(
            f"method {key!r} uses a workload-balancing partitioner; "
            "partition_overrides apply to MPGP methods "
            f"only ({', '.join(_MPGP_METHODS)})"
        )
    for name, value in overrides.items():
        if value:
            kwargs[name] = value
    return kwargs


def embed_graph(
    graph: CSRGraph,
    method: str = "distger",
    num_machines: int = 4,
    dim: int = 64,
    epochs: int = 2,
    seed: int = 0,
    kernel: Optional[str] = None,
    persona=None,
    **system_kwargs,
) -> SystemResult:
    """Embed ``graph`` with one of the reproduced systems.

    Parameters
    ----------
    graph:
        The input :class:`repro.graph.CSRGraph`.
    method:
        ``"distger"`` (default), ``"huge-d"``, ``"knightking"``, ``"pbg"``,
        ``"distdgl"`` or ``"distger-gpu"``.
    num_machines, dim, epochs, seed:
        Cluster size and training hyper-parameters shared by all systems.
    kernel:
        For the walk-based systems: ``"huge"`` (default), ``"huge+"``,
        ``"deepwalk"`` or ``"node2vec"`` -- the §6.6 generic API.
    persona:
        A :class:`repro.persona.PersonaConfig` switches to the Splitter
        persona workload (walk-based methods only): ego-net splitting,
        then persona-regularized training anchored to a base-graph
        prior.  The call then returns a
        :class:`repro.persona.PersonaResult` (persona-space embeddings
        plus the persona↔base mapping) instead of a ``SystemResult``;
        :func:`repro.embed_persona_graph` is the direct entry point.
    system_kwargs:
        Forwarded to the selected system's constructor.  For the
        walk-based systems, flat training hyper-parameters (``lr``,
        ``window``, ``negatives``, ``lr_schedule``, ...) and walk knobs
        (``mu``, ``delta``, ``max_length``, ...) are recognised and routed
        into the system's ``train_overrides``/``walk_overrides``
        automatically; ``execution``/``workers``/``backing``/
        ``spill_dir`` build the run's one ``context``.

    Returns
    -------
    SystemResult
        Embeddings plus timers, traffic metrics, and run statistics.

    Examples
    --------
    The full DistGER pipeline on a small synthetic graph (the snippet the
    README quickstart builds on; kept executable by the CI docs job):

    >>> from repro.graph import powerlaw_cluster
    >>> graph = powerlaw_cluster(60, attach=3, seed=1)
    >>> result = embed_graph(graph, num_machines=2, dim=8, epochs=1, seed=0)
    >>> result.embeddings.shape
    (60, 8)
    >>> result.corpus.num_walks > 0
    True
    """
    key = method.lower()
    if key not in _METHODS:
        raise KeyError(f"unknown method {method!r}; options: {sorted(_METHODS)}")
    if persona is not None:
        from repro.persona import embed_persona_graph

        return embed_persona_graph(
            graph, method=method, num_machines=num_machines, dim=dim,
            epochs=epochs, seed=seed, kernel=kernel, persona=persona,
            **system_kwargs)
    cls = _METHODS[key]
    kwargs = dict(num_machines=num_machines, dim=dim, epochs=epochs,
                  seed=seed, **_route_overrides(key, dict(system_kwargs)))
    if kernel is not None:
        if key in ("distger", "distger-gpu", "knightking"):
            kwargs["kernel"] = kernel
        else:
            raise ValueError(f"method {method!r} does not accept a kernel")
    system = cls(**kwargs)
    return system.embed(graph)


def apply_edge_stream(
    graph: CSRGraph,
    stream,
    prev,
    method: str = "distger",
    num_machines: int = 4,
    dim: int = 64,
    epochs: int = 2,
    seed: int = 0,
    kernel: Optional[str] = None,
    update_epochs: int = 1,
    audit: str = "auto",
    train_scope: str = "stale",
    store=None,
    **system_kwargs,
):
    """Apply an edge stream to an embedded graph and refresh in place.

    The dynamic counterpart of :func:`embed_graph`: ``prev`` is that
    call's :class:`~repro.systems.base.SystemResult` (or a previous
    :class:`~repro.dynamic.UpdateResult` when chaining update steps) for
    ``graph``, and ``stream`` is an
    :class:`~repro.dynamic.EdgeStream` of insertions/deletions.  Instead
    of re-running the full partition → sample → train pipeline, the
    update applies the stream to the CSR in O(churn), invalidates only
    the walks the churn made stale, resamples those through the
    vectorized engine with their original counter-based streams, and
    warm-starts a reduced-epoch training pass from the previous
    embeddings (see :mod:`repro.dynamic.update`).  ``prev.corpus`` is
    patched **in place**.

    ``method``/``num_machines``/``dim``/``epochs``/``seed``/``kernel``
    and the flat walk/train overrides must repeat what produced
    ``prev`` — they reconstruct the exact configs so the resample is
    byte-faithful to a full re-run on the same sources.
    ``update_epochs`` (default 1) is the reduced refinement schedule;
    ``train_scope`` what it sweeps (``"stale"`` — only the resampled
    walks, under full-corpus statistics — or ``"full"``); ``audit``
    picks the invalidation scan (``"auto"``/``"node"``/
    ``"arc"``); ``store`` optionally names a live
    :class:`~repro.serving.store.EmbeddingStore` to refresh when the new
    embeddings land.

    Returns an :class:`~repro.dynamic.UpdateResult`; chain further
    streams with ``apply_edge_stream(result.graph, next_stream, result,
    ...)``.

    Examples
    --------
    >>> from repro.graph import powerlaw_cluster
    >>> from repro.dynamic import random_churn
    >>> graph = powerlaw_cluster(60, attach=3, seed=1)
    >>> result = embed_graph(graph, num_machines=2, dim=8, epochs=1, seed=0)
    >>> stream = random_churn(graph, 0.02, seed=3)
    >>> update = apply_edge_stream(graph, stream, result, num_machines=2,
    ...                            dim=8, epochs=1, seed=0)
    >>> update.embeddings.shape[1]
    8
    >>> update.graph.num_edges == (graph.num_edges + stream.num_inserts
    ...                            - stream.num_deletes)
    True
    """
    from repro.dynamic import update_embedding

    key = method.lower()
    if key not in _WALK_METHODS:
        raise ValueError(
            f"dynamic updates need a walk corpus to patch; method "
            f"{method!r} is not walk-based ({', '.join(_WALK_METHODS)})")
    cls = _METHODS[key]
    kwargs = dict(num_machines=num_machines, dim=dim, epochs=epochs,
                  seed=seed, **_route_overrides(key, dict(system_kwargs)))
    if kernel is not None:
        if key in ("distger", "distger-gpu", "knightking"):
            kwargs["kernel"] = kernel
        else:
            raise ValueError(f"method {method!r} does not accept a kernel")
    system = cls(**kwargs)
    if getattr(prev, "corpus", None) is None:
        raise ValueError(
            "prev must carry the walk corpus to patch (a SystemResult "
            "from a walk-based embed_graph call, or an UpdateResult)")
    return update_embedding(
        graph, stream,
        corpus=prev.corpus,
        embeddings=prev.embeddings,
        model=getattr(prev, "model", None),
        walk_machines=getattr(prev, "walk_machines", None),
        assignment=getattr(prev, "assignment", None),
        walk_config=system.walk_config,
        train_config=system.train_config,
        learner=system.learner,
        num_machines=num_machines,
        seed=seed,
        update_epochs=update_epochs,
        audit=audit,
        train_scope=train_scope,
        store=store,
    )


def serve_embeddings(
    embeddings,
    workers: int = 0,
    metric: str = "cosine",
    candidates=None,
    store_mode: Optional[str] = None,
):
    """Open a :class:`~repro.serving.engine.QueryEngine` over embeddings.

    The online counterpart of :func:`embed_graph`: where that call turns
    a graph into an ``(n, d)`` matrix, this one turns the matrix into a
    query service answering batched top-k similarity requests -- the
    paper's motivating recommendation workload (§1).

    Parameters
    ----------
    embeddings:
        An ``(n, d)`` array (e.g. ``result.embeddings``), an
        :class:`~repro.serving.store.EmbeddingStore`, or a path --
        ``.npy`` files are memory-mapped zero-copy, anything else is
        parsed as the word2vec text format of the ``embed`` CLI.
    workers:
        0 answers queries in-process; ``>= 1`` starts that many query
        worker processes sharing the store zero-copy.  Responses are
        byte-identical either way.
    metric, candidates:
        Engine defaults; see :class:`~repro.serving.engine.QueryEngine`.
    store_mode:
        Backing mode for array/text inputs (``"shared"``/``"mmap"``/
        ``"memory"``); default picks ``"shared"`` when workers are
        requested and ``"memory"`` otherwise.

    Examples
    --------
    >>> import numpy as np
    >>> engine = serve_embeddings(np.eye(4), metric="dot")
    >>> engine.query([0], k=2).ids.tolist()   # ties break by node id
    [[1, 2]]
    >>> engine.close()
    """
    from repro.serving import EmbeddingStore, QueryEngine

    close_store = False
    if isinstance(embeddings, str):
        mode = store_mode or ("mmap" if embeddings.endswith(".npy")
                              else ("shared" if workers else "memory"))
        store = EmbeddingStore.open(embeddings, mode=mode)
        close_store = True
    elif isinstance(embeddings, EmbeddingStore):
        store = embeddings
    else:
        mode = store_mode or ("shared" if workers else "memory")
        import numpy as np

        store = EmbeddingStore.from_array(np.asarray(embeddings),
                                          mode=mode)
        close_store = True
    return QueryEngine(store, workers=workers, metric=metric,
                       candidates=candidates,
                       close_store=close_store)


def available_methods() -> list:
    """Names accepted by :func:`embed_graph`."""
    return sorted(_METHODS)


def walk_methods() -> tuple:
    """Methods that sample a walk corpus (and expose ``result.corpus``)."""
    return _WALK_METHODS
