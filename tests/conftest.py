"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.graph import (
    CSRGraph,
    community_graph,
    path,
    powerlaw_cluster,
    ring_of_cliques,
    star,
)
from repro import native


def pytest_report_header(config):
    """What a byte-level failure depends on, in the log's first lines.

    The golden digests and the ``reduceat`` association pin are functions
    of the NumPy build and of how many threads its BLAS runs, so a
    failure on a new environment should be attributable from the log
    alone.
    """
    threads = ", ".join(
        f"{name}={os.environ.get(name, 'unset')}"
        for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                     "MKL_NUM_THREADS"))
    return [f"numpy {np.__version__}; BLAS threads: {threads}; "
            f"cpus: {os.cpu_count()}"]


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def triangle() -> CSRGraph:
    """The smallest interesting graph: a triangle."""
    return CSRGraph.from_edges([(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def small_graph() -> CSRGraph:
    """Deterministic 40-node ring of 5 cliques."""
    return ring_of_cliques(5, 8)


@pytest.fixture
def medium_graph() -> CSRGraph:
    """~200-node power-law graph with clustering."""
    return powerlaw_cluster(200, attach=4, triangle_prob=0.5, seed=42)


@pytest.fixture
def community_graph_with_labels():
    """Community-structured graph plus its ground-truth communities."""
    return community_graph(150, 6, within_degree=10.0, cross_degree=0.8,
                           seed=7)


@pytest.fixture
def star_graph() -> CSRGraph:
    return star(10)


@pytest.fixture
def path_graph() -> CSRGraph:
    return path(12)


@pytest.fixture
def weighted_triangle() -> CSRGraph:
    return CSRGraph.from_edges(
        [(0, 1), (1, 2), (0, 2)], weights=[1.0, 2.0, 3.0]
    )


@pytest.fixture(scope="session")
def step_resolver():
    """The compiled kernels' library (the HuGE step resolver and the DSGL
    planner's compiled half); skips where it cannot be built."""
    if native.load() is None:
        pytest.skip("the compiled kernels cannot be built here")
    return native.load()


@pytest.fixture
def lanes_path(monkeypatch, tmp_path):
    """Walk kernels built and DSGL slices planned while this is active run
    the NumPy trial lanes and the NumPy planner: the compiled library
    reads as unavailable, in this process and in any worker it forks, and
    a worker that starts afresh finds no cached library and no compiler
    to build one."""
    monkeypatch.setattr(native, "load", lambda: None)
    monkeypatch.setenv("CC", "false")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
