"""Figure 5: end-to-end running time of all five systems on the suite.

Paper result: DistGER is fastest everywhere, with average speedups of
9.25x vs KnightKing, 6.56x vs HuGE-D, 26.2x vs PBG and 51.9x vs DistDGL
(2.33x-129x across graphs).

Reproduced shape: DistGER beats both random-walk
systems in wall-clock on every stand-in.  PBG/DistDGL run few-epoch
NumPy-vectorised loops that are not wall-clock comparable at laptop scale;
their efficiency comparison is reproduced as *time-to-quality* in
bench_fig8_quality_vs_time.py instead.
"""

from __future__ import annotations

import pytest

from common import PAPER, bench_dataset, bench_epochs, print_table, run_once
from repro.systems import DistDGL, DistGER, HuGED, KnightKing, PBG

SYSTEMS = (DistGER, HuGED, KnightKing, PBG, DistDGL)
DATASETS = ("FL", "YT", "LJ", "OR", "TW")
#: ``system.embed`` runs per cell; the report's wall is their median, so
#: one noisy sample cannot decide the wall-clock assertion.
RUNS = 3

#: (system, dataset) -> (median wall seconds, simulated seconds).
_results = {}


@pytest.mark.parametrize("dataset", DATASETS)
@pytest.mark.parametrize("system_cls", SYSTEMS, ids=lambda c: c.name)
def test_fig5_end_to_end(benchmark, system_cls, dataset):
    ds = bench_dataset(dataset)
    system = system_cls(num_machines=4, dim=32, epochs=bench_epochs(), seed=0)
    results = run_once(benchmark,
                       lambda: [system.embed(ds.graph) for _ in range(RUNS)])
    for result in results:
        assert result.embeddings.shape[0] == ds.graph.num_nodes
    # The simulated cost is a pure function of the seed.
    simulated = {result.simulated_seconds for result in results}
    assert len(simulated) == 1, f"simulated seconds vary: {simulated}"
    walls = sorted(result.wall_seconds for result in results)
    _results[(system_cls.name, dataset)] = (walls[RUNS // 2],
                                            simulated.pop())


def test_fig5_report(benchmark):
    """Print the reproduced Figure 5 with paper speedups for reference."""
    if not _results:
        pytest.skip("run the parametrised benches first")
    run_once(benchmark, lambda: None)
    rows = []
    for name in [c.name for c in SYSTEMS]:
        row = [name]
        for dataset in DATASETS:
            res = _results.get((name, dataset))
            row.append(res[0] if res else float("nan"))
        rows.append(row)
    print_table(f"Figure 5: end-to-end wall seconds (median of {RUNS} runs)",
                ["system", *DATASETS], rows)
    # Wall + simulated speedups of DistGER over the walk-based baselines.
    speed_rows = []
    for other in ("HuGE-D", "KnightKing"):
        walls, sims = [], []
        for dataset in DATASETS:
            d = _results.get(("DistGER", dataset))
            o = _results.get((other, dataset))
            if d and o:
                walls.append(o[0] / d[0])
                sims.append(o[1] / d[1])
        if walls:
            speed_rows.append([
                other,
                sum(walls) / len(walls),
                sum(sims) / len(sims),
                PAPER["fig5_speedup_vs"][other],
            ])
    print_table(
        "Figure 5: DistGER average speedup",
        ["vs system", "wall x", "simulated x", "paper x"],
        speed_rows,
    )
    for row in speed_rows:
        assert row[1] > 1.0, f"DistGER should beat {row[0]} in wall time"
