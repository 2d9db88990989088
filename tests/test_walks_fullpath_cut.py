"""HuGE-D's cut to length (``BatchWalkRunner._cut_to_length``) against the
per-hop measurement it replaces.

Under ``fullpath`` every walk runs to ``cap`` (= ``max_length``) or a dead
end, and the cut then ends it at the first token count where the length
rule stops it -- what the loop oracle's ``FullPathWalkMeasure`` decides
after each hop, recomputing ``H`` and ``R²`` from the whole prefix.  A
walker's path is a function of its own counter stream, so a longer cap
only appends to the walk a shorter one walks: cut, the two agree.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import rmat
from repro.walks import WalkConfig, make_kernel
from repro.walks.vectorized import BatchWalkRunner, WalkBuffers

from oracles.walks import FullPathWalkMeasure, should_stop

ROOT = 0x5EED


def fullpath_runner(max_length=12, min_length=1, mu=0.995, kernel="huge",
                    graph=None):
    graph = rmat(5, edge_factor=4, seed=1) if graph is None else graph
    cfg = WalkConfig(kernel=kernel, mode="fullpath", max_length=max_length,
                     min_length=min_length, mu=mu)
    return BatchWalkRunner(graph, ROOT, cfg, make_kernel(cfg, graph))


def walked_buffers(paths, walked) -> WalkBuffers:
    """Buffers as a walk to ``cap`` or a dead end leaves them: row ``j``
    holds ``walked[j]`` tokens of ``paths[j]``, each step after the source
    a recognisable trial count and arc, and padding past the walk."""
    paths = np.asarray(paths, dtype=np.int64)
    n, cap = paths.shape
    out = WalkBuffers.allocate(n, cap)
    out.lengths[:] = walked
    columns = np.arange(cap)
    past = columns >= out.lengths[:, None]
    out.paths[:] = np.where(past, -1, paths)
    out.trials[:] = np.where(past | (columns == 0), 0,
                             1 + columns % 3).astype(np.int32)
    out.arcs[:] = np.where(past | (columns == 0), -1, 100 + columns)
    return out


def reference_length(rule, path, walked) -> int:
    """Where the per-hop measurement ends a walk of ``walked`` tokens:
    ``H`` and ``R²`` of the whole prefix after every token, and a walk
    that reaches ``walked`` tokens stops whatever it measures."""
    measure = FullPathWalkMeasure()
    for length, node in enumerate(path[:walked], 1):
        measure.observe(int(node))
        if length == walked or should_stop(rule, measure):
            return length
    raise AssertionError("a walk holds at least its source")


def cut(runner, paths, walked) -> WalkBuffers:
    out = walked_buffers(paths, walked)
    runner._cut_to_length(out)
    return out


class TestCutIsThePerHopRule:
    @settings(max_examples=80, deadline=None)
    @given(walkers=st.integers(1, 6), cap=st.integers(1, 30),
           alphabet=st.integers(1, 6),
           mu=st.sampled_from((0.0, 0.5, 0.9, 0.995, 1.0)),
           min_length=st.integers(1, 30),
           seed=st.integers(0, 2**32 - 1))
    def test_every_length_is_the_reference(self, walkers, cap, alphabet, mu,
                                           min_length, seed):
        rng = np.random.default_rng(seed)
        min_length = min(min_length, cap)
        runner = fullpath_runner(max_length=cap, min_length=min_length,
                                 mu=mu)
        paths = rng.integers(0, alphabet, size=(walkers, cap))
        walked = rng.integers(1, cap + 1, size=walkers)
        out = cut(runner, paths, walked)
        for j in range(walkers):
            assert int(out.lengths[j]) == reference_length(
                runner.length_rule, paths[j], int(walked[j]))

    @pytest.mark.parametrize("path, walked, min_length, mu, expected", (
        pytest.param([3] * 10, 10, 1, 0.995, 10, id="one node repeated"),
        pytest.param(range(10), 10, 1, 0.995, 3, id="all distinct"),
        pytest.param(range(10), 10, 6, 0.995, 6,
                     id="min_length holds the cut"),
        pytest.param(range(10), 10, 1, 0.0, 10, id="mu 0 never cuts"),
        pytest.param([5] + [0] * 9, 1, 1, 0.995, 1,
                     id="dead end at the source"),
        pytest.param(range(10), 2, 1, 0.995, 2,
                     id="two tokens always fit a line"),
        pytest.param(range(10), 4, 8, 0.995, 4,
                     id="min_length past the walk"),
    ))
    def test_crafted_walks(self, path, walked, min_length, mu, expected):
        runner = fullpath_runner(max_length=10, min_length=min_length, mu=mu)
        paths = np.array([list(path)])
        out = cut(runner, paths, [walked])
        assert int(out.lengths[0]) == expected
        assert expected == reference_length(runner.length_rule, paths[0],
                                            walked)

    def test_past_the_cut_is_blanked(self):
        """Kept tokens, trials and arcs are untouched; everything past the
        cut reads as never walked (paths and arcs −1, trials 0)."""
        runner = fullpath_runner(max_length=10, min_length=1, mu=0.995)
        paths = np.array([list(range(10)), [3] * 10, list(range(10))])
        walked = [10, 10, 5]
        before = walked_buffers(paths, walked)
        out = cut(runner, paths, walked)
        assert out.lengths.tolist() == [3, 10, 3]
        for j, length in enumerate(out.lengths.tolist()):
            for kept, blank, original in zip(out, (-1, None, 0, -1), before):
                if blank is None:
                    continue
                assert kept[j, :length].tolist() == \
                    original[j, :length].tolist()
                assert (kept[j, length:] == blank).all()


@pytest.mark.parametrize("kernel, library", (
    ("huge", True), ("huge", False), ("huge+", True), ("huge+", False),
    ("node2vec", False), ("deepwalk", False),
))
def test_a_longer_cap_cuts_to_the_same_walk(request, kernel, library):
    """The stream fixes the path and the rule only picks the prefix: the
    walks of ``max_length`` 8 are, token for token, the cut walks of
    ``max_length`` 40 -- whole where the short cap cut them, as a prefix
    where it stopped them at 8 tokens."""
    request.getfixturevalue("compiled_library" if library else "lanes_path")
    graph = rmat(6, edge_factor=4, seed=2, directed=True)
    sources = np.arange(graph.num_nodes, dtype=np.int64)
    walk_ids = np.arange(sources.size) + 7
    short, long = (
        fullpath_runner(max_length=cap, min_length=3, mu=0.9, kernel=kernel,
                        graph=graph).run_walks(sources, walk_ids)
        for cap in (8, 40))
    assert fullpath_runner(kernel=kernel).kernel.resolves_walks == (
        library and kernel.startswith("huge"))
    cut_short = short.lengths < 8
    assert cut_short.any() and (~cut_short).any()
    assert (long.lengths[cut_short] == short.lengths[cut_short]).all()
    assert (long.lengths[~cut_short] >= 8).all()
    for mine, theirs in zip(short, long):
        if mine.ndim == 2:
            assert np.array_equal(mine, theirs[:, :8])
