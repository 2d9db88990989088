"""The DSGL step's compiled lanes against the ``ArrayOps`` step loop.

:meth:`DSGLSlicePlan.run_steps` runs the exact lanes of every lock-step
step in C (``embedding/dsgl_step.c``) when the compiled library loads and
the ops are the shared float32 ``NUMPY_OPS``; the GEMMs and the ``exp``
stay NumPy calls.  Everywhere else the ``ArrayOps`` loop runs -- the
reference, which the ``lanes_path`` fixture forces.  On the same plan both
must leave the local buffers the same bytes, compared as ``uint32`` with
inf and overflow lanes included, write back the same matrices and raise
the same divergence error.  NaN lanes must sit in the same places; their
sign bits are the one exception, because where two NaNs are summed NumPy
keeps one or the other depending on the lane's place in its SIMD loop.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import native
from repro.embedding import (
    EmbeddingModel,
    NegativeSampler,
    TrainConfig,
    VectorizedDSGLLearner,
    Vocabulary,
)
from repro.embedding.ops import NumpyOps
from repro.embedding.vectorized import plan_dsgl_slice
from repro.utils.rng import CounterStream
from repro.walks import Corpus

pytestmark = pytest.mark.usefixtures("compiled_library")
#: The loader itself, whatever a fixture has patched over it since.
LOAD = native.load
POISON = (np.nan, np.inf, -np.inf, 3e38)
NAN = np.float32(np.nan).view(np.uint32)


def make_plan(cfg, shards, vocab_nodes, rates):
    """A fresh plan over fresh replicas: one group per shard, group ``g``
    at ``rates[g]`` with its own negative stream."""
    corpus = Corpus(vocab_nodes)
    corpus.add_walk(np.arange(vocab_nodes))
    vocab = Vocabulary.from_corpus(corpus)
    sampler = NegativeSampler(vocab)
    base = EmbeddingModel(vocab, cfg.dim, seed=1)
    groups = [(VectorizedDSGLLearner(base.clone(), sampler, cfg,
                                     CounterStream(100 + g)), walks, rate)
              for g, (walks, rate) in enumerate(zip(shards, rates))]
    return plan_dsgl_slice(groups)[1]


def run(compiled, cfg, shards, vocab_nodes, rates, poison=()):
    """Gather, ``poison`` rows of the context buffer (``(row, value)``),
    run the steps on one path and write back: the buffers' bits, the
    replicas' bits and the divergence message, if any."""
    plan = make_plan(cfg, shards, vocab_nodes, rates)
    with mock.patch.object(native, "load",
                           LOAD if compiled else lambda: None), \
            mock.patch.object(native, "step_lanes",
                              wraps=native.step_lanes) as lanes, \
            np.errstate(all="ignore"):      # the poison is deliberate
        ctx_mega, ctx_start, out_mega, out_start = plan.gather()
        for row, value in poison:
            ctx_mega[row % (ctx_mega.shape[0] - 1)] = value
        plan.run_steps(ctx_mega, out_mega)
    assert lanes.called == compiled
    buffers = tuple(np.where(np.isnan(mega), NAN, mega.view(np.uint32))
                    for mega in (ctx_mega, out_mega))
    try:
        plan.apply_writeback(ctx_mega, ctx_start, out_mega, out_start)
        error = None
    except FloatingPointError as raised:
        error = str(raised)
    replicas = [(learner.model.phi_in.tobytes(),
                 learner.model.phi_out.tobytes())
                for learner, _ in plan.groups]
    return buffers, replicas, error


def assert_same_runs(cfg, shards, vocab_nodes, rates, poison=()):
    (c_buffers, *c_rest), (n_buffers, *n_rest) = (
        run(compiled, cfg, shards, vocab_nodes, rates, poison)
        for compiled in (True, False))
    for c, n in zip(c_buffers, n_buffers):
        assert c.shape == n.shape
        bad = np.flatnonzero((c != n).any(axis=1))
        assert not bad.size, f"rows {bad[:5]} differ"
    assert c_rest == n_rest
    return c_rest[1]


lengths_st = st.lists(
    st.lists(st.integers(0, 14), min_size=1, max_size=10),
    min_size=1, max_size=3)


@pytest.mark.usefixtures("lanes_path")
class TestLaneParity:
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(lengths=lengths_st,
           dim=st.sampled_from((1, 3, 13, 64, 65)),
           window=st.sampled_from((1, 2, 5)),
           negatives=st.sampled_from((1, 3, 5)),
           multi_windows=st.sampled_from((1, 2, 3)),
           vocab_nodes=st.sampled_from((3, 40)),
           rate=st.sampled_from((0.025, 0.5, 1e6)),
           poison=st.lists(st.tuples(st.integers(0, 2**16),
                                     st.sampled_from(POISON)), max_size=3),
           seed=st.integers(0, 2**16))
    @example(lengths=[[9] * 6, [7] * 4], dim=65, window=2, negatives=5,
             multi_windows=2, vocab_nodes=3, rate=0.025, poison=[],
             seed=0)
    @example(lengths=[[12, 5], [3, 8, 1]], dim=13, window=5, negatives=3,
             multi_windows=1, vocab_nodes=40, rate=0.025,
             poison=[(0, np.nan), (7, -np.inf)], seed=1)
    def test_same_bytes_as_the_ops_loop(self, lengths, dim, window,
                                        negatives, multi_windows,
                                        vocab_nodes, rate, poison, seed):
        cfg = TrainConfig(dim=dim, window=window, negatives=negatives,
                          multi_windows=multi_windows)
        rng = np.random.default_rng(seed)
        shards = [[rng.integers(0, vocab_nodes, size=n) for n in group]
                  for group in lengths]
        # Distinct rates per group: the lanes index lr by lifetime.
        rates = [rate * (g + 1) for g in range(len(shards))]
        if make_plan(cfg, shards, vocab_nodes, rates) is None:
            return                      # no trainable window
        assert_same_runs(cfg, shards, vocab_nodes, rates, poison)

    def test_a_row_repeated_within_a_step_keeps_its_last_lane(self):
        """Walks over three nodes repeat a context within one window, so
        one step scatters two lanes -- with different deltas -- to the
        same buffer row; the last lane's sum must win on both paths."""
        cfg = TrainConfig(dim=8, window=3, negatives=2, multi_windows=2)
        shards = [[np.array([0, 1, 0, 1, 0, 2, 0]), np.array([2, 2, 1, 2])],
                  [np.array([1, 0, 1, 1, 2])]]
        plan = make_plan(cfg, shards, 3, [0.05, 0.2])
        scratch = plan.ctx_gather.size
        repeated = False
        for lo, hi in zip(plan.step_offsets[:-1], plan.step_offsets[1:]):
            lanes = plan.cidx[lo:hi].ravel()
            lanes = lanes[lanes != scratch]
            repeated |= np.unique(lanes).size < lanes.size
        assert repeated
        assert_same_runs(cfg, shards, 3, [0.05, 0.2])

    def test_divergence_names_the_same_cohort_and_row(self):
        cfg = TrainConfig(dim=4, window=2, negatives=2, multi_windows=2)
        rng = np.random.default_rng(3)
        shards = [[rng.integers(0, 40, size=9) for _ in range(4)]
                  for _ in range(2)]
        error = assert_same_runs(cfg, shards, 40, [0.05, 0.1],
                                 poison=[(5, np.inf)])
        assert error.startswith("training diverged: learner 'dsgl'")

    @pytest.mark.parametrize("ops", [
        pytest.param(NumpyOps(), id="fresh-float32"),
        pytest.param(NumpyOps(np.float64), id="float64")])
    def test_only_the_shared_reference_reaches_the_lanes(self, ops):
        cfg = TrainConfig(dim=4, window=2, negatives=2)
        plan = make_plan(cfg, [[np.arange(9) % 5]], 40, [0.05])
        with mock.patch.object(native, "load", LOAD), mock.patch.object(
                native, "step_lanes",
                side_effect=AssertionError("the compiled lanes ran")):
            ctx_mega, _, out_mega, _ = plan.gather(ops)
            plan.run_steps(ctx_mega, out_mega, ops)


def lane_args():
    """The arguments one real plan hands the lanes' wrapper."""
    calls = []
    real = native.step_lanes

    def recording(*args):
        calls.append(args)
        return real(*args)

    cfg = TrainConfig(dim=4, window=2, negatives=2, multi_windows=2)
    rng = np.random.default_rng(2)
    plan = make_plan(cfg, [[rng.integers(0, 40, size=n) for n in (5, 3, 7)]],
                     40, [0.05])
    ctx_mega, _, out_mega, _ = plan.gather()
    with mock.patch.object(native, "step_lanes", recording):
        plan.run_steps(ctx_mega, out_mega)
    [args] = calls
    return list(args)


class TestBoundary:
    """ctypes checks nothing, so the wrapper checks every array, once per
    plan, and names the one it refuses."""

    NAMES = ("offsets", "m", "b", "cidx", "oidx", "labels", "mask", "lr",
             "ctx_mega", "out_mega")

    def call(self, **bad):
        args = lane_args()
        for name, change in bad.items():
            if name in self.NAMES:
                i = self.NAMES.index(name)
                args[i] = change(args[i])
            else:
                work = list(args[-1])
                i = ("ctx_vecs", "out_vecs", "scores", "ctx_delta",
                     "out_delta").index(name)
                work[i] = change(work[i])
                args[-1] = tuple(work)
        return native.step_lanes(*args)

    def test_a_real_plan_passes(self):
        assert len(self.call()) == 4

    @pytest.mark.parametrize("name, change", [
        ("lr", lambda a: a.astype(np.float64)),          # an unbound rate
        ("cidx", lambda a: a[:-1]),                      # a short block
        ("oidx", lambda a: a.astype(np.int32)),
        ("mask", lambda a: a[..., :-1]),
        ("ctx_mega", lambda a: np.asfortranarray(a)),    # not contiguous
        ("scores", lambda a: np.repeat(a, 2, axis=0)[::2]),
        ("out_delta", lambda a: a[:-1]),
    ])
    def test_wrong_dtype_shape_or_layout_is_refused(self, name, change):
        with pytest.raises(ValueError, match=f"step lanes' {name} expects"):
            self.call(**{name: change})

    @pytest.mark.parametrize("name, row", [("cidx", -1), ("oidx", 10**6)])
    def test_an_index_outside_the_buffer_is_refused(self, name, row):
        def change(idx):
            idx = idx.copy()
            idx[-1, -1] = row
            return idx

        with pytest.raises(ValueError,
                           match=f"step lanes' {name} indexes outside"):
            self.call(**{name: change})

    def test_offsets_that_fall_are_refused(self):
        with pytest.raises(ValueError, match="step offsets rising from 0"):
            self.call(offsets=lambda offsets: offsets[::-1])
