"""Persona (Splitter-style) vs single-embedding link prediction.

The persona workload's claim, on the graph family it was built for:
when nodes straddle several overlapping communities, one vector per node
averages the roles and mis-scores within-role edges, while per-ego-net
personas anchored to a shared prior recover them.  Reproduced on the
overlapping-community generator: hold out 30% of the edges, embed the
residual graph once with plain DistGER and once with the persona
pipeline, score held-out pairs (dot product; personas score a base pair
by its best persona pair), and compare AUC.

Gates:

* persona AUC >= single-embedding AUC (trial-mean, on the overlapping-
  community dataset the workload targets);
* λ=0 + ``warm_start=False`` persona runs are **byte-identical** to
  embedding the persona graph directly, on every executor (serial /
  process / pipeline) -- the anchor seam's do-no-harm contract.

``--size smoke`` runs one trial at 2 epochs instead of 3 at 3.
"""

from __future__ import annotations

import numpy as np

from common import bench_size, print_table, run_once
from repro import PersonaConfig, embed_graph, embed_persona_graph, \
    persona_pair_scores
from repro.graph import overlapping_community_graph, persona_graph
from repro.tasks import auc_from_split, split_edges
from repro.tasks.metrics import auc_score

SIZE = bench_size("persona")
TRIALS = SIZE["trials"]
EPOCHS = SIZE["epochs"]
NODES = 240
COMMUNITIES = max(2, NODES // 10)   # ~10-node communities, densely knit
DIM = 32
MACHINES = 2
LAM = 0.1

_results = {}


def _dataset():
    return overlapping_community_graph(
        NODES, COMMUNITIES, overlap_fraction=0.5, within_degree=7.0,
        cross_degree=0.1, seed=7)


def test_persona_vs_single_auc(benchmark):
    graph, _membership = _dataset()

    def protocol():
        singles, personas = [], []
        for trial in range(TRIALS):
            split = split_edges(graph, test_fraction=0.3, seed=trial)
            single = embed_graph(split.train_graph, num_machines=MACHINES,
                                 dim=DIM, epochs=EPOCHS, seed=0)
            singles.append(auc_from_split(single.embeddings, split))
            run = embed_persona_graph(
                split.train_graph, num_machines=MACHINES, dim=DIM,
                epochs=EPOCHS, seed=0,
                persona=PersonaConfig(lam=LAM, prior=single.embeddings))
            pos = persona_pair_scores(run.embeddings, run.persona_offsets,
                                      split.test_positive)
            neg = persona_pair_scores(run.embeddings, run.persona_offsets,
                                      split.test_negative)
            personas.append(auc_score(pos, neg))
        return (float(np.mean(singles)), float(np.mean(personas)),
                run.num_personas)

    single_auc, persona_auc, num_personas = run_once(benchmark, protocol)
    _results["auc"] = (single_auc, persona_auc, num_personas)
    # The workload gate: on its target graph family, splitting must not
    # lose to the single embedding it anchors to.
    assert persona_auc >= single_auc, (
        f"persona AUC {persona_auc:.4f} below single-embedding "
        f"{single_auc:.4f} on the overlapping-community dataset")


def test_persona_lam0_byte_parity(benchmark):
    """λ=0, no warm start == plain DistGER on the persona graph, everywhere."""
    graph, _membership = _dataset()
    split = persona_graph(graph)
    off = PersonaConfig(lam=0.0, warm_start=False,
                        prior=np.zeros((graph.num_nodes, DIM),
                                       dtype=np.float32))

    def protocol():
        runs = {}
        for execution in ("serial", "process", "pipeline"):
            kwargs = ({} if execution == "serial"
                      else {"execution": execution, "workers": 2})
            plain = embed_graph(split.graph, num_machines=MACHINES,
                                dim=DIM, epochs=1, seed=0, **kwargs)
            run = embed_persona_graph(graph, num_machines=MACHINES,
                                      dim=DIM, epochs=1, seed=0,
                                      persona=off, **kwargs)
            assert np.array_equal(run.embeddings, plain.embeddings), (
                f"λ=0 persona run diverged from the plain path under "
                f"execution={execution!r}")
            runs[execution] = run.embeddings
        assert np.array_equal(runs["serial"], runs["process"])
        assert np.array_equal(runs["serial"], runs["pipeline"])
        return True

    assert run_once(benchmark, protocol)
    _results["parity"] = "byte-identical (serial/process/pipeline)"


def test_persona_report(benchmark):
    import pytest

    if "auc" not in _results:
        pytest.skip("run the AUC bench first")
    run_once(benchmark, lambda: None)
    single_auc, persona_auc, num_personas = _results["auc"]
    print_table(
        "Persona vs single-embedding link prediction "
        f"(overlapping communities, n={NODES}, {TRIALS} trials)",
        ["variant", "AUC", "vectors"],
        [
            ["DistGER (single)", single_auc, NODES],
            [f"Persona (lam={LAM})", persona_auc, num_personas],
            ["lam=0 parity", _results.get("parity", "not run"), ""],
        ])
