#!/usr/bin/env python
"""Quickstart: embed a graph with DistGER in a few lines.

Builds the LiveJournal stand-in graph, runs the full DistGER pipeline
(MPGP partitioning -> information-oriented random walks with InCoM ->
DSGL training with hotness-block synchronisation) on a simulated
4-machine cluster, and prints what happened.

Run:  python examples/quickstart.py

``REPRO_EXAMPLE_FAST=1`` shrinks the run to a tiny graph (how the
examples smoke test keeps this script executable in CI).
"""

from __future__ import annotations

import os

from repro import embed_graph, load_dataset

#: Smoke-test mode: a tiny graph and one short epoch, identical code path.
FAST = os.environ.get("REPRO_EXAMPLE_FAST", "") not in ("", "0")
SCALE, DIM, EPOCHS = (0.1, 16, 1) if FAST else (0.5, 64, 3)


def main() -> None:
    dataset = load_dataset("LJ", scale=SCALE)
    graph = dataset.graph
    print(f"Graph: {graph.num_nodes} nodes, {graph.num_edges} edges "
          f"({dataset.description})")

    result = embed_graph(
        graph,
        method="distger",
        num_machines=4,
        dim=DIM,
        epochs=EPOCHS,
        seed=0,
    )

    print(f"\nEmbeddings: {result.embeddings.shape}")
    print(f"End-to-end wall time: {result.wall_seconds:.2f}s")
    for phase in ("partition", "sampling", "training"):
        print(f"  {phase:10s} {result.phase(phase):7.2f}s")
    print(f"Simulated cluster makespan: {result.simulated_seconds:.3f}s")

    stats = result.stats
    print("\nInformation-oriented sampling:")
    print(f"  average walk length  {stats['avg_walk_length']:.1f} "
          f"(routine baseline: 80)")
    print(f"  walks per node       {stats['rounds']:.0f} "
          f"(routine baseline: 10)")
    print(f"  corpus tokens        {stats['corpus_tokens']:.0f}")

    metrics = result.metrics
    print("\nDistributed behaviour:")
    print(f"  cross-machine walker messages  {metrics.messages_sent}")
    print(f"  walker message bytes           {metrics.message_bytes} "
          f"(constant 80 B each -- InCoM)")
    print(f"  model sync traffic             {metrics.sync_bytes / 1e6:.1f} MB "
          f"(hotness-block)")

    # The embeddings are ready for any downstream task:
    emb = result.embeddings
    u, v = 0, int(graph.neighbors(0)[0])
    print(f"\nSimilarity of adjacent nodes {u},{v}: "
          f"{float(emb[u] @ emb[v]):.3f}")


if __name__ == "__main__":
    main()
