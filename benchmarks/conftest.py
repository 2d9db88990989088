"""Benchmark-suite configuration: make ``benchmarks/`` importable, and
``tests/`` too -- the speedup gates time the library against the loop
references in ``tests/oracles/``."""

import os
import sys

_HERE = os.path.dirname(__file__)
sys.path.insert(0, _HERE)
sys.path.insert(0, os.path.join(os.path.dirname(_HERE), "tests"))


def pytest_addoption(parser):
    parser.addoption(
        "--backend", action="store", default="model",
        choices=("model", "torch"),
        help="bench_table9_gpu accelerator mode: 'model' times the CPU "
             "pipeline and projects GPU seconds through the cost model; "
             "'torch' really executes training on torch tensors and "
             "reports measured seconds (requires the optional torch "
             "dependency; CUDA when available)")
