"""Smoke tests for the documented entry points in ``examples/``.

The README and quickstart point users at these scripts, so they must
stay executable: each test runs an example as a real subprocess (its own
interpreter, the same ``PYTHONPATH=src`` convention CI uses) on a tiny
graph via the examples' ``REPRO_EXAMPLE_FAST`` switch, and asserts on
the printed markers rather than exact numbers -- the golden pipeline
suite owns quality, this suite owns "the documented commands run".
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), os.pardir,
                            "examples")
SRC_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def run_example(name: str, extra_env: dict, timeout: float = 600.0):
    env = dict(os.environ)
    python_path = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = os.path.abspath(SRC_DIR) + (
        os.pathsep + python_path if python_path else "")
    env.update(extra_env)
    result = subprocess.run(
        [sys.executable, os.path.join(EXAMPLES_DIR, name)],
        capture_output=True, text=True, timeout=timeout, env=env)
    assert result.returncode == 0, (
        f"{name} exited {result.returncode}\nstdout:\n{result.stdout}\n"
        f"stderr:\n{result.stderr}"
    )
    return result.stdout


def test_quickstart_runs_on_a_tiny_graph():
    stdout = run_example("quickstart.py", {"REPRO_EXAMPLE_FAST": "1"})
    assert "Embeddings: (" in stdout
    assert "Information-oriented sampling:" in stdout
    assert "average walk length" in stdout
    # Phase breakdown printed for all three phases.
    for phase in ("partition", "sampling", "training"):
        assert phase in stdout


def test_scalability_study_runs_in_fast_mode():
    stdout = run_example("scalability_study.py",
                         {"REPRO_EXAMPLE_FAST": "1"})
    assert "Machine sweep" in stdout
    assert "Graph-size sweep" in stdout
    assert "Executor sweep" in stdout
    # Every executor row must confirm byte-parity with the serial run.
    parity_lines = [line for line in stdout.splitlines()
                    if "byte-identical to serial" in line]
    assert parity_lines, stdout
    assert all(line.rstrip().endswith("True") for line in parity_lines), \
        stdout


@pytest.mark.parametrize("example", ("quickstart.py",
                                     "scalability_study.py"))
def test_examples_exist_and_are_python(example):
    """Guard the README's pointers: the documented files exist."""
    path = os.path.join(EXAMPLES_DIR, example)
    assert os.path.exists(path)
    with open(path, "r", encoding="utf-8") as handle:
        first = handle.readline()
    assert first.startswith("#!") or first.startswith('"""')
