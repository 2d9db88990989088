"""Benchmark-suite configuration: make ``benchmarks/`` importable, and
``tests/`` too -- the speedup gates time the library against the loop
references in ``tests/oracles/`` -- and select the ``--size`` row before
collection, so module-level constants read it."""

import os
import sys

_HERE = os.path.dirname(__file__)
sys.path.insert(0, _HERE)
sys.path.insert(0, os.path.join(os.path.dirname(_HERE), "tests"))

from common import SIZES, use_size  # noqa: E402


def pytest_addoption(parser):
    parser.addoption(
        "--size", action="store", default="full", choices=tuple(SIZES),
        help="benchmarks/common.py SIZES row: 'full' runs the local sizes "
             "and floors, 'smoke' the scaled-down ones CI runs")
    parser.addoption(
        "--backend", action="store", default="model",
        choices=("model", "torch"),
        help="bench_table9_gpu accelerator mode: 'model' times the CPU "
             "pipeline and projects GPU seconds through the cost model; "
             "'torch' really executes training on torch tensors and "
             "reports measured seconds (requires the optional torch "
             "dependency; CUDA when available)")


def pytest_configure(config):
    use_size(config.getoption("--size"))
