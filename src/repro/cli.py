"""Command-line interface.

Eight subcommands cover the common workflows:

* ``embed``     -- run any reproduced system on a dataset stand-in or an
                   edge-list file and save embeddings in word2vec format.
* ``update``    -- embed, then apply an edge stream (a ``+/- u v`` file
                   or synthetic churn) through the dynamic path: delta-CSR
                   merge, walk invalidation, selective resampling,
                   warm-start re-training; reports the speedup over the
                   full recompute.
* ``evaluate``  -- link-prediction AUC of a method on a dataset.
* ``partition`` -- compare partitioning schemes on a dataset.
* ``cluster``   -- embed, k-means the vectors, report NMI/modularity.
* ``similar``   -- nearest embedding neighbours of a node.
* ``serve``     -- answer top-k queries from a saved embedding file,
                   in-process or on a worker pool; optionally replay a
                   Zipf trace and report QPS + latency percentiles.
* ``stats``     -- structural statistics of a dataset or edge list.

Examples::

    python -m repro embed --dataset LJ --method distger --dim 64 \
        --out /tmp/lj.emb
    python -m repro embed --edges graph.txt --method knightking
    python -m repro embed --dataset FL --persona --persona-lam 0.1 \
        --out /tmp/fl_persona.emb
    python -m repro update --dataset FL --churn 0.01 --out /tmp/fl.emb
    python -m repro update --dataset FL --stream edits.txt
    python -m repro evaluate --dataset LJ --method distger --trials 3
    python -m repro partition --dataset LJ --machines 4
    python -m repro cluster --dataset FL --k 6
    python -m repro similar --dataset LJ --node 0 --k 10
    python -m repro serve --embeddings /tmp/lj.emb --nodes 0,1,2 --k 5
    python -m repro serve --embeddings /tmp/lj.npy --workers 4 --trace 10000
    python -m repro stats --dataset TW
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.api import available_methods, embed_graph, walk_methods
from repro.graph.csr import CSRGraph
from repro.graph.datasets import ALL_DATASETS, load
from repro.graph.io import read_edge_list, save_embeddings
from repro.partition import (
    FennelPartitioner,
    HashPartitioner,
    LDGPartitioner,
    MetisLikePartitioner,
    MPGPPartitioner,
    ParallelMPGPPartitioner,
    WorkloadBalancePartitioner,
    evaluate as evaluate_partition,
)
from repro.tasks import evaluate_link_prediction

_KERNEL_CHOICES = ["huge", "huge+", "deepwalk", "node2vec", "node2vec-alias"]


def _load_graph(args) -> CSRGraph:
    # --edges takes precedence over --dataset when both are given.
    if args.edges:
        return read_edge_list(args.edges, directed=args.directed,
                              weighted=args.weighted)
    return load(args.dataset, scale=args.scale).graph


def _add_graph_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", choices=list(ALL_DATASETS), default="LJ",
                        help="built-in dataset stand-in (default: LJ)")
    parser.add_argument("--edges", metavar="FILE",
                        help="whitespace edge-list file; overrides --dataset")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="stand-in size multiplier (default: 1.0)")
    parser.add_argument("--directed", action="store_true",
                        help="treat the edge list as directed")
    parser.add_argument("--weighted", action="store_true",
                        help="read a third edge-weight column")


_BACKEND_CHOICES = ["auto", "vectorized", "loop"]
#: The trainer additionally offers the torch device backend (optional
#: dependency; validated eagerly with an install hint by TrainConfig).
_TRAIN_BACKEND_CHOICES = _BACKEND_CHOICES + ["torch"]
_EXECUTION_CHOICES = ["serial", "process", "pipeline"]
_BACKING_CHOICES = ["shm", "mmap"]


def _add_system_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--method", choices=available_methods(),
                        default="distger")
    parser.add_argument("--machines", type=int, default=4)
    parser.add_argument("--dim", type=int, default=64)
    parser.add_argument("--epochs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--kernel", default=None, choices=_KERNEL_CHOICES,
                        help="walk kernel for walk-based methods (§6.6)")
    parser.add_argument("--walk-backend", default=None,
                        choices=_BACKEND_CHOICES,
                        help="walk engine execution backend (default: auto)")
    parser.add_argument("--train-backend", default=None,
                        choices=_TRAIN_BACKEND_CHOICES,
                        help="trainer execution backend; 'torch' runs the "
                             "batched slice plans on torch tensors "
                             "(optional dependency) (default: auto)")
    parser.add_argument("--torch-device", default=None,
                        choices=["auto", "cpu", "cuda"],
                        help="device for --train-backend torch: 'auto' "
                             "prefers CUDA when available (default: auto)")
    parser.add_argument("--torch-dtype", default=None,
                        choices=["auto", "float32", "float64"],
                        help="buffer dtype for --train-backend torch: "
                             "'auto' is float64 on CPU (byte-parity tier) "
                             "and float32 on CUDA (default: auto)")
    parser.add_argument("--partition-backend", default=None,
                        choices=_BACKEND_CHOICES,
                        help="MPGP partitioner backend; DistGER methods "
                             "only (default: auto)")
    parser.add_argument("--execution", default=None,
                        choices=_EXECUTION_CHOICES,
                        help="run walk rounds, training slices and MPGP "
                             "segments on worker processes ('process'), or "
                             "additionally overlap partitioning with "
                             "sampling and round flushes with the next "
                             "round ('pipeline'); byte-identical results "
                             "either way (default: serial)")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes for --execution "
                             "process/pipeline (default: min(4, cores))")
    parser.add_argument("--backing", default=None,
                        choices=_BACKING_CHOICES,
                        help="transport of the read-only blocks workers "
                             "attach under --execution process/pipeline: "
                             "'shm' (/dev/shm segments) or 'mmap' "
                             "(file-backed .npy maps -- the out-of-core "
                             "mode; byte-identical results, bounded "
                             "resident memory; default: REPRO_BACKING or "
                             "shm)")
    parser.add_argument("--spill-dir", default=None, metavar="DIR",
                        help="spill root for --backing mmap (default: "
                             "REPRO_SPILL_DIR or the system temp dir)")


def _backend_kwargs(args) -> dict:
    """Flat embed_graph kwargs for the backend flags that were given."""
    kwargs = {}
    if getattr(args, "walk_backend", None):
        kwargs["backend"] = args.walk_backend
    if getattr(args, "train_backend", None):
        kwargs["train_backend"] = args.train_backend
    if getattr(args, "torch_device", None):
        kwargs["torch_device"] = args.torch_device
    if getattr(args, "torch_dtype", None):
        kwargs["torch_dtype"] = args.torch_dtype
    if getattr(args, "partition_backend", None):
        kwargs["partition_backend"] = args.partition_backend
    if getattr(args, "execution", None):
        kwargs["execution"] = args.execution
    if getattr(args, "workers", None) is not None:
        kwargs["workers"] = args.workers
    if getattr(args, "backing", None):
        kwargs["backing"] = args.backing
    if getattr(args, "spill_dir", None):
        kwargs["spill_dir"] = args.spill_dir
    return kwargs


def cmd_embed(args) -> int:
    if (args.save_corpus or args.persona) and \
            args.method not in walk_methods():
        # Fail before the (potentially long) run, not after it.
        flag = "--save-corpus" if args.save_corpus else "--persona"
        print(f"error: method {args.method!r} samples no walk corpus; "
              f"{flag} applies to {', '.join(walk_methods())}",
              file=sys.stderr)
        return 2
    graph = _load_graph(args)
    print(f"Embedding |V|={graph.num_nodes}, |E|={graph.num_edges} "
          f"with {args.method} on {args.machines} simulated machines ...")
    if args.persona:
        from repro.persona import PersonaConfig

        persona = embed_graph(graph, method=args.method,
                              num_machines=args.machines, dim=args.dim,
                              epochs=args.epochs, seed=args.seed,
                              kernel=args.kernel,
                              persona=PersonaConfig(lam=args.persona_lam),
                              **_backend_kwargs(args))
        result = persona.result
        print(f"persona split: {persona.num_personas} personas over "
              f"{graph.num_nodes} nodes (lambda={args.persona_lam})")
    else:
        persona = None
        result = embed_graph(graph, method=args.method,
                             num_machines=args.machines, dim=args.dim,
                             epochs=args.epochs, seed=args.seed,
                             kernel=args.kernel, **_backend_kwargs(args))
    print(f"done in {result.wall_seconds:.2f}s wall "
          f"({result.simulated_seconds:.3f}s simulated); "
          f"{result.metrics.messages_sent} walker messages, "
          f"{result.metrics.sync_bytes / 1e6:.1f} MB sync traffic")
    if args.out:
        if persona is not None:
            # Per-persona rows don't fit the one-row-per-node text
            # format; publish the per-base mean (the single-embedding
            # projection).  Persona-resolution consumers use the API.
            save_embeddings(args.out, persona.base_embeddings())
            print(f"base-node mean embeddings written to {args.out}")
        else:
            save_embeddings(args.out, result.embeddings)
            print(f"embeddings written to {args.out}")
    if args.save_corpus:
        result.corpus.save(args.save_corpus)
        print(f"walk corpus ({result.corpus.num_walks} walks, "
              f"{result.corpus.total_tokens} tokens) written to "
              f"{args.save_corpus}")
    return 0


def cmd_update(args) -> int:
    from repro.api import apply_edge_stream
    from repro.dynamic import EdgeStream, random_churn

    if (args.stream is None) == (args.churn is None):
        print("error: give exactly one of --stream FILE or --churn FRACTION",
              file=sys.stderr)
        return 2
    if args.method not in walk_methods():
        print(f"error: method {args.method!r} samples no walk corpus; "
              f"dynamic updates apply to {', '.join(walk_methods())}",
              file=sys.stderr)
        return 2
    graph = _load_graph(args)
    print(f"Embedding |V|={graph.num_nodes}, |E|={graph.num_edges} "
          f"with {args.method} on {args.machines} simulated machines ...")
    result = embed_graph(graph, method=args.method,
                         num_machines=args.machines, dim=args.dim,
                         epochs=args.epochs, seed=args.seed,
                         kernel=args.kernel, **_backend_kwargs(args))
    print(f"full embed: {result.wall_seconds:.2f}s wall")
    if args.stream:
        stream = EdgeStream.from_text(args.stream)
    else:
        stream = random_churn(graph, args.churn, seed=args.stream_seed)
    print(f"applying {stream.num_inserts} insertions + "
          f"{stream.num_deletes} deletions ...")
    update = apply_edge_stream(
        graph, stream, result, method=args.method,
        num_machines=args.machines, dim=args.dim, epochs=args.epochs,
        seed=args.seed, kernel=args.kernel,
        update_epochs=args.update_epochs, audit=args.audit,
        train_scope=args.train_scope, **_backend_kwargs(args))
    stale = int(update.stats.get("stale_walks", 0))
    total = int(update.stats.get("total_walks", 0))
    print(f"update: {update.wall_seconds:.2f}s wall "
          f"({stale}/{total} walks resampled; "
          f"delta {update.phase('delta'):.3f}s, "
          f"invalidate {update.phase('invalidate'):.3f}s, "
          f"resample {update.phase('resample'):.3f}s, "
          f"train {update.phase('train'):.3f}s)")
    if update.wall_seconds > 0:
        print(f"speedup vs full recompute: "
              f"{result.wall_seconds / update.wall_seconds:.1f}x")
    print(f"new graph: |V|={update.graph.num_nodes}, "
          f"|E|={update.graph.num_edges}")
    if args.out:
        save_embeddings(args.out, update.embeddings)
        print(f"updated embeddings written to {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    graph = _load_graph(args)

    def embedder(train_graph: CSRGraph):
        return embed_graph(train_graph, method=args.method,
                           num_machines=args.machines, dim=args.dim,
                           epochs=args.epochs, seed=args.seed,
                           kernel=args.kernel,
                           **_backend_kwargs(args)).embeddings

    print(f"Link prediction with {args.method} "
          f"({args.trials} trials, 50% edges held out) ...")
    report = evaluate_link_prediction(graph, embedder, trials=args.trials,
                                      seed=args.seed)
    print(f"AUC = {report.mean_auc:.4f} (+- {report.std_auc:.4f})")
    return 0


_PARTITIONERS = {
    "hash": HashPartitioner,
    "workload-balancing": WorkloadBalancePartitioner,
    "ldg": LDGPartitioner,
    "fennel": FennelPartitioner,
    "metis-like": MetisLikePartitioner,
    "mpgp": MPGPPartitioner,
    "mpgp-parallel": ParallelMPGPPartitioner,
}


#: Schemes that accept the ``backend`` knob (the baselines have nothing
#: to vectorize differently).
_BACKEND_SCHEMES = ("mpgp", "mpgp-parallel")


def cmd_partition(args) -> int:
    graph = _load_graph(args)
    schemes = args.schemes or list(_PARTITIONERS)
    exec_flags = (args.backend or args.execution or args.workers is not None
                  or args.backing or args.spill_dir)
    if exec_flags:
        skipped = [n for n in schemes if n not in _BACKEND_SCHEMES]
        if skipped:
            print(f"note: --backend/--execution/--workers/--backing apply "
                  f"to {'/'.join(_BACKEND_SCHEMES)} only; ignored for "
                  f"{', '.join(skipped)}")
    print(f"{'scheme':20s} {'seconds':>8s} {'cut%':>7s} {'balance':>8s} "
          f"{'walk locality':>13s}")
    for name in schemes:
        if exec_flags and name in _BACKEND_SCHEMES:
            scheme_kwargs = {}
            if args.backend:
                scheme_kwargs["backend"] = args.backend
            if args.execution:
                scheme_kwargs["execution"] = args.execution
            if args.workers is not None:
                scheme_kwargs["workers"] = args.workers
            if args.backing:
                scheme_kwargs["backing"] = args.backing
            if args.spill_dir:
                scheme_kwargs["spill_dir"] = args.spill_dir
            partitioner = _PARTITIONERS[name](**scheme_kwargs)
        else:
            partitioner = _PARTITIONERS[name]()
        result = partitioner.partition(graph, args.machines)
        quality = evaluate_partition(graph, result.assignment, args.machines)
        print(f"{name:20s} {result.seconds:8.3f} "
              f"{quality.cut_fraction:7.1%} {quality.node_balance:8.2f} "
              f"{quality.expected_walk_locality:13.3f}")
    return 0


def _embed_for_args(graph: CSRGraph, args):
    return embed_graph(graph, method=args.method,
                       num_machines=args.machines, dim=args.dim,
                       epochs=args.epochs, seed=args.seed,
                       kernel=args.kernel,
                       **_backend_kwargs(args)).embeddings


def cmd_cluster(args) -> int:
    from repro.tasks import evaluate_clustering

    dataset = None if args.edges else load(args.dataset, scale=args.scale)
    graph = _load_graph(args)
    truth = dataset.communities if dataset is not None else None
    print(f"Embedding |V|={graph.num_nodes} with {args.method}, then "
          f"k-means with k={args.k} ...")
    emb = _embed_for_args(graph, args)
    report = evaluate_clustering(graph, emb, k=args.k, ground_truth=truth,
                                 seed=args.seed)
    print(f"modularity = {report.modularity:.4f}")
    if report.nmi is not None:
        print(f"NMI vs planted communities = {report.nmi:.4f}")
    return 0


def cmd_similar(args) -> int:
    from repro.embedding import top_k_similar
    from repro.graph.io import load_embeddings

    graph = _load_graph(args)
    if args.node < 0 or args.node >= graph.num_nodes:
        print(f"error: node {args.node} outside |V|={graph.num_nodes}",
              file=sys.stderr)
        return 2
    if args.embeddings:
        emb = load_embeddings(args.embeddings)
    else:
        emb = _embed_for_args(graph, args)
    neighbors = set(int(v) for v in graph.neighbors(args.node))
    print(f"top-{args.k} nodes most similar to {args.node} "
          f"(graph degree {graph.degree(args.node)}):")
    for node, score in top_k_similar(emb, args.node, k=args.k):
        tag = " (graph neighbour)" if node in neighbors else ""
        print(f"  {node:8d}  {score:+.4f}{tag}")
    return 0


def cmd_serve(args) -> int:
    import numpy as np

    from repro.api import serve_embeddings
    from repro.serving.trace import zipf_query_trace

    if args.nodes is None and args.trace is None:
        print("error: give --nodes to answer queries or --trace N to "
              "replay a synthetic trace", file=sys.stderr)
        return 2
    with serve_embeddings(args.embeddings, workers=args.workers,
                          metric=args.metric) as engine:
        n = engine.store.num_nodes
        kind = engine.store.mode
        print(f"serving {n} x {engine.store.dim} embeddings "
              f"({kind} store, "
              f"{'in-process' if not args.workers else f'{args.workers} workers'})")
        if args.nodes is not None:
            nodes = np.asarray([int(x) for x in args.nodes.split(",")],
                               dtype=np.int64)
            bad = nodes[(nodes < 0) | (nodes >= n)]
            if bad.size:
                print(f"error: node {int(bad[0])} outside |V|={n}",
                      file=sys.stderr)
                return 2
            result = engine.query(nodes, k=args.k)
            for row, node in enumerate(nodes):
                hits = ", ".join(f"{nid}:{score:+.4f}"
                                 for nid, score in result.as_lists()[row])
                print(f"  {int(node):8d} -> {hits}")
            return 0
        batches = zipf_query_trace(args.trace, n, batch_size=args.batch,
                                   seed=args.seed)
        # Keep the pool busy: pipeline up to 2 x workers requests.
        depth = max(1, 2 * args.workers)
        pending, answered = [], 0
        start = time.perf_counter()
        for batch in batches:
            pending.append((engine.submit(batch, k=args.k), batch.size))
            while len(pending) >= depth:
                handle, size = pending.pop(0)
                handle.result()
                answered += size
        for handle, size in pending:
            handle.result()
            answered += size
        wall = time.perf_counter() - start
        print(f"replayed {answered} queries in {len(batches)} batches "
              f"of <= {args.batch}: {answered / wall:,.0f} queries/s "
              f"({wall:.2f}s wall)")
        for worker, stats in engine.latency_summary().items():
            print(f"  {worker:16s} n={int(stats['count']):6d} "
                  f"mean={stats['mean'] * 1e3:7.2f}ms "
                  f"p50={stats['p50'] * 1e3:7.2f}ms "
                  f"p99={stats['p99'] * 1e3:7.2f}ms")
    return 0


def cmd_stats(args) -> int:
    from repro.graph import (
        approximate_diameter,
        average_degree,
        clustering_coefficient,
        connected_components,
        degree_assortativity,
        degree_gini,
        density,
        power_law_exponent,
    )

    graph = _load_graph(args)
    comp = connected_components(graph)
    num_components = int(comp.max()) + 1 if comp.size else 0
    rows = [
        ("nodes", graph.num_nodes),
        ("edges", graph.num_edges),
        ("directed", graph.directed),
        ("weighted", graph.is_weighted),
        ("average degree", f"{average_degree(graph):.2f}"),
        ("density", f"{density(graph):.3g}"),
        ("components", num_components),
        ("degree gini", f"{degree_gini(graph):.3f}"),
        ("assortativity", f"{degree_assortativity(graph):.3f}"),
        ("approx. diameter", approximate_diameter(graph, seed=args.seed)),
    ]
    if not graph.directed:
        rows.append(("clustering coeff", f"{clustering_coefficient(graph):.3f}"))
    try:
        rows.append(("power-law exponent", f"{power_law_exponent(graph):.2f}"))
    except ValueError:
        rows.append(("power-law exponent", "n/a (no tail)"))
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"{name:{width}s}  {value}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DistGER reproduction: distributed graph embedding "
                    "with information-oriented random walks (VLDB 2023).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_embed = sub.add_parser("embed", help="embed a graph, save vectors")
    _add_graph_args(p_embed)
    _add_system_args(p_embed)
    p_embed.add_argument("--out", metavar="FILE",
                         help="write embeddings (word2vec text format)")
    p_embed.add_argument("--save-corpus", metavar="FILE",
                         help="write the sampled walk corpus as flat npz "
                              "(token block + offsets)")
    p_embed.add_argument("--persona", action="store_true",
                         help="Splitter persona workload: ego-net split "
                              "the graph, train persona embeddings "
                              "anchored to a base-graph prior (walk-based "
                              "methods only); --out saves the per-base "
                              "mean vectors")
    p_embed.add_argument("--persona-lam", type=float, default=0.1,
                         metavar="LAMBDA",
                         help="anchor regularizer weight for --persona "
                              "(default: 0.1; 0 disables anchoring)")
    p_embed.set_defaults(func=cmd_embed)

    p_update = sub.add_parser(
        "update", help="embed, then apply an edge stream incrementally")
    _add_graph_args(p_update)
    _add_system_args(p_update)
    p_update.add_argument("--stream", metavar="FILE",
                          help="edge-edit file: one '+ u v [w]' or '- u v' "
                               "per line ('#' comments)")
    p_update.add_argument("--churn", type=float, metavar="FRACTION",
                          help="synthetic churn instead of --stream: "
                               "FRACTION of |E| edits, half insertions "
                               "half deletions")
    p_update.add_argument("--stream-seed", type=int, default=1,
                          help="seed for --churn (default: 1)")
    p_update.add_argument("--update-epochs", type=int, default=1,
                          help="warm-start refinement epochs (default: 1)")
    p_update.add_argument("--audit", default="auto",
                          choices=["auto", "node", "arc"],
                          help="walk invalidation audit: kernel-aware node "
                               "scan (auto/node) or traversed-pair arc scan "
                               "(fast, incomplete under insertions)")
    p_update.add_argument("--train-scope", default="stale",
                          choices=["stale", "full"],
                          help="what the refinement epochs sweep: only the "
                               "resampled walks under full-corpus stats "
                               "(stale, default) or the whole corpus (full)")
    p_update.add_argument("--out", metavar="FILE",
                          help="write updated embeddings (word2vec text)")
    p_update.set_defaults(func=cmd_update)

    p_eval = sub.add_parser("evaluate", help="link-prediction AUC")
    _add_graph_args(p_eval)
    _add_system_args(p_eval)
    p_eval.add_argument("--trials", type=int, default=3)
    p_eval.set_defaults(func=cmd_evaluate)

    p_part = sub.add_parser("partition", help="compare partitioners")
    _add_graph_args(p_part)
    p_part.add_argument("--machines", type=int, default=4)
    p_part.add_argument("--schemes", nargs="*",
                        choices=list(_PARTITIONERS), default=None)
    p_part.add_argument("--backend", default=None, choices=_BACKEND_CHOICES,
                        help="MPGP scoring backend (default: auto)")
    p_part.add_argument("--execution", default=None,
                        choices=_EXECUTION_CHOICES,
                        help="partition parallel-MPGP segments on worker "
                             "processes (default: serial)")
    p_part.add_argument("--workers", type=int, default=None,
                        help="worker processes for --execution process")
    p_part.add_argument("--backing", default=None, choices=_BACKING_CHOICES,
                        help="segment-worker transport: shm segments or "
                             "file-backed mmaps (default: REPRO_BACKING)")
    p_part.add_argument("--spill-dir", default=None, metavar="DIR",
                        help="spill root for --backing mmap")
    p_part.set_defaults(func=cmd_partition)

    p_cluster = sub.add_parser("cluster",
                               help="k-means clustering of the embeddings")
    _add_graph_args(p_cluster)
    _add_system_args(p_cluster)
    p_cluster.add_argument("--k", type=int, default=5,
                           help="number of clusters (default: 5)")
    p_cluster.set_defaults(func=cmd_cluster)

    p_sim = sub.add_parser("similar",
                           help="nearest embedding neighbours of a node")
    _add_graph_args(p_sim)
    _add_system_args(p_sim)
    p_sim.add_argument("--node", type=int, required=True)
    p_sim.add_argument("--k", type=int, default=10)
    p_sim.add_argument("--embeddings", metavar="FILE",
                       help="reuse saved embeddings instead of re-embedding")
    p_sim.set_defaults(func=cmd_similar)

    p_serve = sub.add_parser("serve",
                             help="top-k query serving from saved embeddings")
    p_serve.add_argument("--embeddings", metavar="FILE", required=True,
                         help="saved embeddings: .npy (memory-mapped "
                              "zero-copy) or word2vec text")
    p_serve.add_argument("--workers", type=int, default=0,
                         help="query worker processes; 0 = in-process "
                              "(default: 0)")
    p_serve.add_argument("--k", type=int, default=10)
    p_serve.add_argument("--metric", default="cosine",
                         choices=["cosine", "dot"])
    p_serve.add_argument("--nodes", metavar="ID,ID,...",
                         help="answer one batch for these node ids")
    p_serve.add_argument("--trace", type=int, metavar="N",
                         help="replay a Zipf-skewed trace of N queries and "
                              "report QPS + latency percentiles")
    p_serve.add_argument("--batch", type=int, default=64,
                         help="request batch size for --trace (default: 64)")
    p_serve.add_argument("--seed", type=int, default=0,
                         help="trace seed (default: 0)")
    p_serve.set_defaults(func=cmd_serve)

    p_stats = sub.add_parser("stats", help="structural graph statistics")
    _add_graph_args(p_stats)
    p_stats.add_argument("--seed", type=int, default=0)
    p_stats.set_defaults(func=cmd_stats)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
