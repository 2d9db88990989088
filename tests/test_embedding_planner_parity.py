"""The compiled DSGL slice planner against the NumPy planner.

:func:`repro.embedding.vectorized.plan_dsgl_slice` draws the negative
pools and row-maps the tokens in NumPy, then hands the rest of the plan to
``dsgl_plan`` (``embedding/dsgl_plan.c``) when the compiled library loads,
and to the NumPy planner otherwise.  Every field of the two plans must be
the same bytes: buffer layouts, both ``DuplicateRowSum`` structures and
their destination lists, execution order, step tensors, labels and masks.
"""

from __future__ import annotations

import copy
from contextlib import contextmanager, nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles.embedding as oracle_embedding
from repro import native
from repro.embedding import (
    DistributedTrainer,
    EmbeddingModel,
    NegativeSampler,
    TrainConfig,
    VectorizedDSGLLearner,
    Vocabulary,
)
from repro.embedding.vectorized import plan_dsgl_slice
from repro.runtime import Cluster, ExecutionContext
from repro.utils.rng import CounterStream
from repro.walks import Corpus
from repro.walks.corpus import shard_walks

pytestmark = pytest.mark.usefixtures("step_resolver")
#: The loader itself, whatever a fixture has patched over it since.
LOAD = native.load

ARRAYS = ("ctx_gather", "out_gather", "cidx", "oidx", "labels", "mask", "lr")
VALUES = ("num_steps", "m_max", "b_max", "cohort", "ctx_bounds",
          "out_bounds", "step_offsets", "_bound")
MERGE_FIELDS = ("rows", "_gather", "_layers", "_wide", "_wide_gather",
                "_wide_starts")


@contextmanager
def planner(compiled: bool):
    """Plans built inside run the compiled half or the NumPy planner."""
    with nullcontext() if compiled else \
            mock.patch.object(native, "load", lambda: None):
        yield


def assert_same_array(a, b):
    assert (a.dtype, a.shape) == (b.dtype, b.shape)
    assert a.tobytes() == b.tobytes()


def assert_same_plan(c, n):
    """Every field of two plans, ``DuplicateRowSum`` internals included."""
    assert (c is None) == (n is None)
    if n is None:
        return
    for name in ARRAYS:
        assert_same_array(getattr(c, name), getattr(n, name))
    for name in VALUES:
        assert getattr(c, name) == getattr(n, name), name
    assert [(learner.neg_stream.key, lr) for learner, lr in c.groups] == \
        [(learner.neg_stream.key, lr) for learner, lr in n.groups]
    for buffer in ("ctx", "out"):
        merge_c = getattr(c, f"{buffer}_merge")
        merge_n = getattr(n, f"{buffer}_merge")
        for field in MERGE_FIELDS:
            x, y = getattr(merge_c, field, None), getattr(merge_n, field, None)
            if isinstance(y, np.ndarray):
                assert_same_array(x, y)
            else:
                assert x == y, field
        dest_c = getattr(c, f"{buffer}_dest")
        dest_n = getattr(n, f"{buffer}_dest")
        assert len(dest_c) == len(dest_n) == len(n.groups)
        for (rows_c, at_c), (rows_n, at_n) in zip(dest_c, dest_n):
            assert_same_array(rows_c, rows_n)
            assert_same_array(at_c, at_n)


def make_groups(cfg, shards, vocab_nodes):
    """Fresh ``(learner, walks, lr)`` groups over a ``vocab_nodes``-row
    vocabulary, one negative stream per group."""
    corpus = Corpus(vocab_nodes)
    corpus.add_walk(np.arange(vocab_nodes))
    vocab = Vocabulary.from_corpus(corpus)
    sampler = NegativeSampler(vocab)
    base = EmbeddingModel(vocab, cfg.dim, seed=1)
    return [(VectorizedDSGLLearner(base.clone(), sampler, cfg,
                                   CounterStream(1000 + g)),
             walks, 0.01 * (g + 1))
            for g, walks in enumerate(shards)]


def draw_shards(lengths, vocab_nodes, subsample, seed):
    """Walks of the given lengths; with ``subsample`` they are cut from
    one flat corpus through the trainer's position-keyed keep draws, so
    some shrink to one token or vanish."""
    rng = np.random.default_rng(seed)
    shards = [[rng.integers(0, vocab_nodes, size=n) for n in group]
              for group in lengths]
    if not subsample:
        return shards
    keep = rng.random(vocab_nodes) * (1.0 - subsample)
    out = []
    for walks in shards:
        tokens = np.concatenate([np.empty(0, np.int64), *walks])
        offsets = np.concatenate([[0], np.cumsum([w.size for w in walks])])
        shard = np.arange(len(walks), dtype=np.int64)
        out.append(shard_walks(tokens, offsets.astype(np.int64), shard, 0,
                               len(walks), keep, keep_key=seed))
    return out


def both_plans(cfg, shards, vocab_nodes):
    results = []
    for compiled in (True, False):
        groups = make_groups(cfg, shards, vocab_nodes)
        with planner(compiled):
            tokens, plan = plan_dsgl_slice(groups)
        counters = [learner.neg_stream.counter for learner, _, _ in groups]
        results.append((tokens, plan, counters))
    return results


lengths_st = st.lists(
    st.lists(st.one_of(st.integers(0, 12), st.integers(0, 1)),
             max_size=12),
    min_size=1, max_size=4)


class TestPlanParity:
    @settings(max_examples=150, deadline=None)
    @given(lengths=lengths_st,
           multi_windows=st.sampled_from((1, 2, 3)),
           window=st.sampled_from((1, 2, 10)),
           negatives=st.sampled_from((1, 5)),
           vocab_nodes=st.sampled_from((3, 40)),
           subsample=st.sampled_from((0.0, 0.5)),
           seed=st.integers(0, 2**16))
    @example(lengths=[[0, 1, 1], [5, 0]], multi_windows=2, window=1,
             negatives=1, vocab_nodes=3, subsample=0.0, seed=0)
    @example(lengths=[[9] * 12, [7] * 12], multi_windows=1, window=2,
             negatives=5, vocab_nodes=3, subsample=0.0, seed=1)
    def test_every_field_equal(self, lengths, multi_windows, window,
                               negatives, vocab_nodes, subsample, seed):
        cfg = TrainConfig(dim=4, window=window, negatives=negatives,
                          multi_windows=multi_windows)
        shards = draw_shards(lengths, vocab_nodes, subsample, seed)
        (tokens_c, plan_c, used_c), (tokens_n, plan_n, used_n) = \
            both_plans(cfg, shards, vocab_nodes)
        assert tokens_c == tokens_n == [sum(w.size for w in walks)
                                        for walks in shards]
        assert used_c == used_n
        assert_same_plan(plan_c, plan_n)

    def test_contested_rows_take_the_reduceat_branch(self):
        """Skewed rows over twelve one-walk lifetimes per replica: hot
        rows have more than eight contributors and go to ``reduceat``,
        the rest to the layered reduce, on both planners."""
        cfg = TrainConfig(dim=4, window=2, negatives=5, multi_windows=1)
        rng = np.random.default_rng(21)
        shards = [[(rng.random(9) ** 3 * 40).astype(np.int64)
                   for _ in range(12)] for _ in range(2)]
        (_, plan_c, _), (_, plan_n, _) = both_plans(cfg, shards, 40)
        for merge in (plan_n.ctx_merge, plan_n.out_merge):
            assert merge._wide > 0 and merge._layers[0] > 0
        assert_same_plan(plan_c, plan_n)

    def test_group_without_a_trainable_window_stays_out(self):
        cfg = TrainConfig(dim=4, window=2, negatives=1, multi_windows=2)
        shards = draw_shards([[1, 1, 0], [6, 3], [1]], 40, 0.0, seed=3)
        (tokens, plan_c, used_c), (_, plan_n, used_n) = \
            both_plans(cfg, shards, 40)
        assert tokens == [2, 9, 1] and used_c == used_n
        assert len(plan_n.groups) == 1
        assert_same_plan(plan_c, plan_n)

    def test_one_lifetime_plans_of_the_loop_reference(self):
        """The reference learner plans one lifetime at a time; each of
        its plans, and the trained matrices, match across planners."""
        cfg = TrainConfig(dim=8, window=3, negatives=3, multi_windows=2,
                          dsgl_threads=2)
        shards = draw_shards([[0, 1, 9, 4, 12, 2, 1, 7, 5]], 40, 0.0, seed=4)
        runs = []
        for compiled in (True, False):
            [(fast, walks, lr)] = make_groups(cfg, shards, 40)
            loop = oracle_embedding.LEARNERS["dsgl"](
                fast.model, fast.sampler, cfg, CounterStream(7))
            plans = []

            def recording(groups, plans=plans):
                tokens, plan = plan_dsgl_slice(groups)
                plans.append(copy.copy(plan))
                return tokens, plan

            with planner(compiled), mock.patch.object(
                    oracle_embedding, "plan_dsgl_slice", recording):
                loop.train_walks(walks, lr)
            runs.append((plans, fast.model.phi_in.tobytes(),
                         fast.model.phi_out.tobytes()))
        (plans_c, *matrices_c), (plans_n, *matrices_n) = runs
        assert len(plans_c) == len(plans_n) == 5
        for plan_c, plan_n in zip(plans_c, plans_n):
            assert_same_plan(plan_c, plan_n)
        assert matrices_c == matrices_n

    @pytest.mark.parametrize("execution", ("serial", "process", "pipeline"))
    def test_trainer_bytes_with_subsampling(self, execution):
        """Whole trainer runs, subsampling on: the same embeddings on both
        planners (forked slice workers inherit the planner choice)."""
        rng = np.random.default_rng(8)
        corpus = Corpus(50)
        for _ in range(40):
            corpus.add_walk(rng.integers(0, 50, size=rng.integers(1, 16)))
        outs = []
        for compiled in (True, False):
            cfg = TrainConfig(dim=8, window=3, negatives=3, epochs=1,
                              subsample=1e-2, sync_period_tokens=80,
                              context=ExecutionContext(execution, 2))
            cluster = Cluster(2, np.zeros(50, dtype=np.int64), seed=0)
            with planner(compiled):
                outs.append(DistributedTrainer(corpus, cluster,
                                               cfg).train().embeddings)
        assert outs[0].tobytes() == outs[1].tobytes()


def slice_args():
    """The arguments one real plan hands the compiled half."""
    calls = []
    real = native.plan_slice

    def recording(*args):
        calls.append(args)
        return real(*args)

    cfg = TrainConfig(dim=4, window=2, negatives=2, multi_windows=2)
    groups = make_groups(cfg, draw_shards([[5, 3, 4], [6]], 40, 0.0, 2), 40)
    with mock.patch.object(native, "plan_slice", recording):
        plan_dsgl_slice(groups)
    [args] = calls
    return list(args)


class TestBoundary:
    """ctypes checks nothing, so the wrapper checks every array."""

    @pytest.mark.parametrize("position, bad", [
        (0, lambda a: a.astype(np.int32)),                 # tokens
        (1, lambda a: a[:-1]),                             # pool length
        (2, lambda a: np.repeat(a, 2)[::2]),               # not contiguous
        (2, lambda a: a[:, None]),                         # not 1-D
        (3, lambda a: a.astype(np.float64)),               # walks per group
        (4, lambda a: a.astype(np.float32)),               # group rates
    ])
    def test_wrong_dtype_length_or_layout_is_refused(self, position, bad):
        args = slice_args()
        args[position] = bad(args[position])
        with pytest.raises(ValueError, match="planner expects"):
            native.plan_slice(*args)

    @pytest.mark.parametrize("position, bad", [
        (2, lambda a: a + 1),                   # sizes miss the tokens
        (2, lambda a: a + np.r_[5, -5, 0, 0]),  # a negative size
        (3, lambda a: a[::-1] + 1),             # walks miss the sizes
        (3, lambda a: a + np.r_[2, -2]),        # ... or go negative
    ])
    def test_sizes_that_do_not_add_up_are_refused(self, position, bad):
        args = slice_args()
        args[position] = bad(args[position]).copy()
        with pytest.raises(ValueError, match="do not describe"):
            native.plan_slice(*args)

    @pytest.mark.parametrize("row", (-1, 40))
    def test_rows_outside_the_model_raise_like_numpy(self, row):
        cfg = TrainConfig(dim=4, window=2, negatives=2, multi_windows=2)
        for compiled in (True, False):
            groups = make_groups(cfg, draw_shards([[5, 3]], 40, 0.0, 2), 40)
            learner = groups[0][0]
            real_rows = learner._rows
            learner._rows = lambda nodes: np.where(
                np.arange(nodes.size) == 2, row, real_rows(nodes))
            with planner(compiled), pytest.raises(
                    IndexError, match="DSGL plan gathers rows outside the "
                                      "model matrices"):
                plan_dsgl_slice(groups)


def test_disabled_library_runs_the_numpy_planner(lanes_path):
    """With the library disabled, planning never reaches the compiled
    half -- and still produces the plan the compiled half builds."""
    cfg = TrainConfig(dim=4, window=2, negatives=2, multi_windows=2)
    shards = draw_shards([[5, 3, 4], [6]], 40, 0.0, 2)
    with mock.patch.object(native, "plan_slice",
                           side_effect=AssertionError("compiled half ran")):
        _, plan_n = plan_dsgl_slice(make_groups(cfg, shards, 40))
    with mock.patch.object(native, "load", LOAD):
        _, plan_c = plan_dsgl_slice(make_groups(cfg, shards, 40))
    assert_same_plan(plan_c, plan_n)
