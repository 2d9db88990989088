"""The benches' ``--size`` table stays complete.

Every ``benchmarks/bench_*.py`` module reads its sizes and gate floors
from ``benchmarks/common.py``'s ``SIZES`` at import time, so collecting
the whole bench suite at a size resolves every entry that size needs: a
bench that reads a key its row lacks fails collection here, in tier-1,
not in the CI step that runs it.
"""

from __future__ import annotations

import glob
import importlib.util
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
BENCHES = sorted(glob.glob(os.path.join(ROOT, "benchmarks", "bench_*.py")))


def collect(size: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    python_path = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + (
        os.pathsep + python_path if python_path else "")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q",
         "-p", "no:cacheprovider", *BENCHES, "--size", size],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("size", ("full", "smoke"))
def test_every_bench_collects_at_size(size):
    result = collect(size)
    assert result.returncode == 0, result.stdout + result.stderr
    assert BENCHES
    for bench in BENCHES:
        assert f"{os.path.basename(bench)}::" in result.stdout, bench


def test_unknown_size_is_refused():
    result = collect("bogus")
    assert result.returncode != 0
    assert "invalid choice" in result.stderr, result.stderr


def test_sizes_resolve_the_same_keys():
    """A bench reads the same parameters at every size."""
    spec = importlib.util.spec_from_file_location(
        "bench_common", os.path.join(ROOT, "benchmarks", "common.py"))
    common = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(common)
    full, smoke = common.SIZES["full"], common.SIZES["smoke"]
    assert full.keys() == smoke.keys()
    for bench in full:
        assert ({**full["default"], **full[bench]}.keys()
                == {**smoke["default"], **smoke[bench]}.keys()), bench
