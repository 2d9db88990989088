"""Table 9: DistGER vs DistGER-GPU training time.

Paper result: on small graphs the GPU gives modest gains (FL 1.79s ->
0.65s); on Twitter the GPU is *slower* (299.9s -> 390.1s) because
training state exceeds device memory and host-device transfers dominate.

Two modes (``pytest benchmarks/bench_table9_gpu.py --backend ...``):

* ``model`` (default): the simulated accelerator cost model -- a
  compute-rate multiplier plus a device-memory capacity with a PCIe
  spill penalty (see repro.systems.gpu).  The device memory is scaled so
  the TW stand-in spills, mirroring the paper's crossover.
* ``torch``: training really executes on torch tensors
  (``TrainConfig.backend="torch"``, CUDA when available) and the table
  reports **measured** wall seconds next to the cost model's PCIe
  projection -- the real-hardware analogue of the paper's comparison.
  Skips cleanly when the optional torch dependency is absent.
"""

from __future__ import annotations

import pytest

from common import PAPER, bench_dataset, bench_size, print_table, run_once
from repro.embedding.ops import torch_available
from repro.systems import DistGER, DistGERGPU, GPUCostModel

SIZE = bench_size("table9")
SCALE = SIZE["scale"]
EPOCHS = SIZE["epochs"]

DATASETS = ("FL", "YT", "LJ", "OR", "TW")
_out = {}

#: Scaled "24 GB" device.  Resident training state grows with
#: SCALE, so the capacity must track it for the paper's
#: crossover to reproduce at any scale: the TW stand-in (~1.1 MB/scale
#: resident) exceeds it and spills, FL (~0.35 MB/scale) fits.
GPU = GPUCostModel(speedup=12.0,
                   device_memory_bytes=int(800_000 * SCALE),
                   pcie_bandwidth=2.0e4)


@pytest.fixture(scope="module")
def backend(request):
    mode = request.config.getoption("--backend")
    if mode == "torch" and not torch_available():
        pytest.skip("--backend torch requires the optional torch install")
    return mode


@pytest.mark.parametrize("dataset", DATASETS)
def test_table9_gpu(benchmark, dataset, backend):
    ds = bench_dataset(dataset, SCALE)
    system = DistGERGPU(num_machines=4, dim=32, epochs=EPOCHS,
                        seed=0, gpu=GPU, backend=backend)
    result = run_once(benchmark, system.embed, ds.graph)
    stats = dict(result.stats)
    if backend == "torch":
        # Measured CPU baseline for the side-by-side (the cost model's
        # CPU column is itself a measurement in model mode, so only the
        # torch mode needs this extra run).
        cpu = DistGER(num_machines=4, dim=32, epochs=EPOCHS,
                      seed=0)
        stats["cpu_training_seconds"] = \
            cpu.embed(ds.graph).phase("training")
    _out[dataset] = stats


def test_table9_report(benchmark, backend):
    if not _out:
        pytest.skip("run the parametrised benches first")
    run_once(benchmark, lambda: None)
    measured = backend == "torch"
    rows = []
    for dataset in DATASETS:
        s = _out[dataset]
        paper_cpu, paper_gpu = PAPER["table9_gpu"][dataset]
        row = [
            dataset,
            s["cpu_training_seconds"],
            s["gpu_training_seconds"],
            s["device_spill_bytes"] / 1e3,
        ]
        if measured:
            row.append(s["modelled_transfer_seconds"])
        row.append(f"{paper_cpu}/{paper_gpu}")
        rows.append(row)
    headers = ["graph", "CPU train s",
               "GPU train s" if measured else "GPU train s (model)",
               "spill kB"]
    if measured:
        headers.append("modelled xfer s")
    headers.append("paper")
    print_table(
        "Table 9: CPU vs GPU training seconds, "
        + ("measured torch backend" if measured else "simulated cost model")
        + " (paper CPU/GPU in last column)",
        headers, rows,
    )
    if measured:
        # Real seconds: sanity only -- relative speed depends on the
        # machine (CPU-only torch is typically *slower* than the tuned
        # numpy path; CUDA is where the multiplier appears).
        for dataset in DATASETS:
            assert _out[dataset]["gpu_training_seconds"] > 0
            assert _out[dataset]["gpu_mode"] == 1.0
        assert _out["TW"]["device_spill_bytes"] > 0
        return
    # Shape: the GPU helps where state fits and the biggest graph spills.
    assert _out["FL"]["gpu_training_seconds"] < \
        _out["FL"]["cpu_training_seconds"]
    assert _out["TW"]["device_spill_bytes"] > 0, \
        "the largest stand-in should exceed simulated device memory"
    assert _out["TW"]["gpu_training_seconds"] > \
        0.5 * _out["TW"]["cpu_training_seconds"], \
        "spilling should erode the GPU advantage on the largest graph"
