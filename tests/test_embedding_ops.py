"""The array-ops seam: dup-row determinism, dtype guards, eager gates.

Tier-1 coverage for :mod:`repro.embedding.ops` that runs without torch:

* the eager ``TrainConfig`` validation of the optional torch backend --
  a missing install must fail at config-resolve time with the pip hint,
  for every executor (the process/pipeline workers reconstruct learners
  from a config the *parent* already validated);
* :func:`sum_duplicate_rows` / :func:`merge_deltas` accumulation-order
  contract -- a repeated destination row's deltas reduce in input order
  as ``d1 + (d2 + ... + dk)``: bit for bit ``np.add.reduceat`` over the
  stable-sorted layout, a function of the row's own subsequence alone
  (also for the DSGL plan's plan-time ``(replica, row)`` structure), and
  within a dtype-derived bound of the float64 sequential sum;
* the fused step gradient (``sub`` → ``×lr`` → ``×mask`` over plan-time
  label/mask tensors) against the unfused fill/put/``−=``/``×lr``/
  ``×row``/``×col`` chain it replaced -- bytes, padded lanes included;
* the ``NumpyOps`` float64 tier (the reference the torch-CPU tier is
  pinned against) and the identity fast path of the default float32 ops;
* :func:`repro.embedding.schedules.progress64` -- the lr schedule input
  must be dtype-independent no matter who counted the tokens.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.embedding.model import TrainConfig
from repro.embedding.ops import (
    NUMPY_OPS,
    DuplicateRowSum,
    NumpyOps,
    TORCH_INSTALL_HINT,
    resolve_ops,
    sum_duplicate_rows,
    torch_available,
)
from repro.embedding.schedules import SCHEDULES, make_schedule, progress64
from repro.embedding.vectorized import _replica_merge, merge_deltas
from repro.runtime import ExecutionContext

needs_missing_torch = pytest.mark.skipif(
    torch_available(),
    reason="torch is installed; the missing-dependency gate cannot fire",
)


class TestEagerBackendValidation:
    """Satellite 1: backend knobs fail at config-resolve time."""

    @needs_missing_torch
    def test_torch_backend_raises_install_hint(self):
        with pytest.raises(ValueError, match="pip install torch"):
            TrainConfig(backend="torch")

    @needs_missing_torch
    @pytest.mark.parametrize("execution", ["serial", "process", "pipeline"])
    def test_gate_fires_before_any_worker(self, execution):
        """Process/pipeline runs fail in the parent, not inside a fork.

        The executors pickle an already-constructed config to workers, so
        validation at ``__post_init__`` is the last (and only) gate that
        runs in the parent process -- it must cover every executor.
        """
        with pytest.raises(ValueError, match="pip install torch"):
            TrainConfig(backend="torch",
                        context=ExecutionContext(execution, 2))

    def test_install_hint_is_actionable(self):
        assert "pip install torch" in TORCH_INSTALL_HINT

    def test_backend_options_list_torch(self):
        with pytest.raises(ValueError, match="torch"):
            TrainConfig(backend="gpu")

    @pytest.mark.parametrize("field,bad", [("torch_device", "gpu"),
                                           ("torch_dtype", "half")])
    def test_invalid_torch_knobs(self, field, bad):
        with pytest.raises(ValueError, match=bad):
            TrainConfig(**{field: bad})

    def test_resolve_ops_defaults_to_numpy_singleton(self):
        for cfg in (TrainConfig(), None):
            assert resolve_ops(cfg) is NUMPY_OPS


def deltas_for(rows, dim=5):
    """Deterministic float32 deltas whose sum is order-sensitive."""
    rng = np.random.default_rng(rows.size * 31 + 7)
    scale = 10.0 ** rng.integers(-3, 4, size=(rows.size, 1))
    return (rng.standard_normal((rows.size, dim)) * scale).astype(np.float32)


def by_row(urows, merged):
    """``sum_duplicate_rows`` output re-sorted by ascending row."""
    order = np.argsort(urows)
    return urows[order], merged[order]


def reduceat_reference(rows, deltas):
    """One ``np.add.reduceat`` over the stable row-sorted layout -- the
    association every caller of the merge routine is pinned to."""
    order = np.argsort(rows, kind="stable")
    rows_sorted = rows[order]
    starts = np.flatnonzero(
        np.r_[True, rows_sorted[1:] != rows_sorted[:-1]])
    return rows_sorted[starts], np.add.reduceat(deltas[order], starts, axis=0)


#: Values that expose an association change: signed zeros, float32
#: subnormals, magnitudes that cancel or absorb their neighbours.  All
#: stay far enough below the float32 maximum that 40 of them cannot
#: overflow (an inf - inf NaN would make the byte comparison moot).
TRICKY = [0.0, -0.0, 1e-45, -1e-45, 1e-39, -1e-39, 1.0, -1.0, 1e-8,
          16777216.0, -16777216.0, 1e30, -1e30, 3.0e-5, 0.1]
delta_values = st.one_of(
    st.sampled_from(TRICKY),
    st.floats(-2.0 ** 100, 2.0 ** 100, width=32, allow_nan=False,
              allow_subnormal=True))


@st.composite
def contested_rows(draw):
    """``(rows, deltas)`` with 1-40 contributors per distinct row, the
    rows' contributions interleaved arbitrarily."""
    counts = draw(st.lists(st.integers(1, 40), min_size=1, max_size=5))
    rows = np.repeat(np.arange(len(counts), dtype=np.int64) * 3, counts)
    rows = rows[draw(st.permutations(range(rows.size)))]
    deltas = draw(hnp.arrays(np.float32, (rows.size, 3),
                             elements=delta_values))
    return rows, deltas


class TestDuplicateRowAccumulation:
    """Satellite 2: repeated rows reconcile in pinned input order."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 7), min_size=1, max_size=40))
    @example([0, 0, 0, 0, 0, 0, 1, 0, 0, 0])
    def test_matches_sequential_reference(self, row_list):
        """Mathematically the sequential sum; only the association
        differs (pinned below), so each row must sit within the float32
        summation bound -- contributors x eps32 x sum|d|, per column -- of
        the float64 left-to-right sum.  A fixed ``atol`` is wrong here:
        the explicit example cancels at magnitude 1e3.
        """
        rows = np.asarray(row_list, dtype=np.int64)
        deltas = deltas_for(rows)
        urows, merged = by_row(*sum_duplicate_rows(rows, deltas))
        np.testing.assert_array_equal(urows, np.unique(rows))
        eps32 = float(np.finfo(np.float32).eps)
        for i, row in enumerate(urows.tolist()):
            own = deltas[rows == row].astype(np.float64)
            exact = np.zeros(deltas.shape[1])
            for delta in own:
                exact = exact + delta
            bound = own.shape[0] * eps32 * np.abs(own).sum(axis=0)
            assert (np.abs(merged[i] - exact) <= bound).all(), (row, own)

    @settings(max_examples=300, deadline=None)
    @given(contested_rows())
    def test_association_is_reduceat_bit_for_bit(self, case):
        """The pin the plan-time write-back rests on: the rank-by-rank
        reduce (<= 8 contributors: ``d1 + (d2 + ... + dk)`` left to
        right) and the ``reduceat`` branch (> 8) both reproduce one
        ``np.add.reduceat`` over the stable-sorted layout exactly --
        signed zeros, subnormals and cancellation included.
        """
        rows, deltas = case
        urows, merged = by_row(*sum_duplicate_rows(rows, deltas))
        ref_rows, ref_merged = reduceat_reference(rows, deltas)
        np.testing.assert_array_equal(urows, ref_rows)
        assert merged.tobytes() == ref_merged.tobytes()

    def test_both_reduce_branches_are_exercised(self):
        """8 contributors is the last layered size, 9 the first wide."""
        rows = np.repeat(np.array([5, 2, 9], dtype=np.int64), [8, 9, 1])
        structure = DuplicateRowSum(rows)
        assert structure.rows.tolist() == [2, 5, 9]   # most contested first
        assert structure._wide == 1 and len(structure._layers) == 7
        deltas = deltas_for(rows)
        _, ref = reduceat_reference(rows, deltas)
        assert structure.reduce(deltas).tobytes() == ref.tobytes()

    def test_short_delta_block_is_an_index_error(self):
        structure = DuplicateRowSum(np.array([1, 1, 3], dtype=np.int64))
        with pytest.raises(IndexError):
            structure.reduce(np.zeros((2, 4), dtype=np.float32))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 7), min_size=1, max_size=40))
    def test_row_result_depends_on_own_subsequence_only(self, row_list):
        """The bitwise contract: a row's merge is a pure function of its
        own delta subsequence in input order, however other rows
        interleave -- reduce each row's subsequence alone and the full
        interleaved input must produce the identical bytes.
        """
        rows = np.asarray(row_list, dtype=np.int64)
        deltas = deltas_for(rows)
        urows, merged = sum_duplicate_rows(rows, deltas)
        for i, row in enumerate(urows.tolist()):
            mask = rows == row
            alone_rows, alone = sum_duplicate_rows(rows[mask], deltas[mask])
            assert alone_rows.tolist() == [row]
            np.testing.assert_array_equal(merged[i], alone[0])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 7), min_size=0, max_size=30),
                    min_size=1, max_size=4))
    def test_plan_time_replica_structure_same_contract(self, per_replica):
        """The DSGL plan's structure over ``(replica, row)`` keys: every
        replica's every row gets exactly the bytes of reducing that
        row's own subsequence alone -- so one structure for the whole
        plan equals the run-time ``merge_deltas`` per replica.
        """
        gather = np.asarray([row for rows in per_replica for row in rows],
                            dtype=np.int64)
        if not gather.size:
            return
        bounds = np.r_[0, np.cumsum([len(rows) for rows in per_replica])]
        deltas = deltas_for(gather)
        merge, dest = _replica_merge(gather, bounds.tolist(), 8)
        merged = merge.reduce(deltas)
        assert len(dest) == len(per_replica)
        for g, (dest_rows, at) in enumerate(dest):
            lo, hi = bounds[g:g + 2]
            assert sorted(dest_rows.tolist()) == \
                np.unique(gather[lo:hi]).tolist()
            for row, pos in zip(dest_rows.tolist(), at.tolist()):
                mask = gather[lo:hi] == row
                _, alone = sum_duplicate_rows(gather[lo:hi][mask],
                                              deltas[lo:hi][mask])
                assert merged[pos].tobytes() == alone[0].tobytes()
            # ... which is what the loop reference's merge applies.
            phi_plan = np.zeros((8, deltas.shape[1]), dtype=np.float32)
            phi_plan[dest_rows] += merged.take(at, axis=0)
            phi_loop = np.zeros_like(phi_plan)
            merge_deltas(phi_loop, gather[lo:hi], deltas[lo:hi])
            assert phi_plan.tobytes() == phi_loop.tobytes()

    def test_plan_time_structure_rejects_out_of_range_rows(self):
        for rows in ([0, 8], [-1, 3]):
            with pytest.raises(IndexError, match="outside the model"):
                _replica_merge(np.asarray(rows, dtype=np.int64), [0, 2], 8)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 7), min_size=1, max_size=40))
    def test_merge_deltas_applies_pinned_merge(self, row_list):
        rows = np.asarray(row_list, dtype=np.int64)
        deltas = deltas_for(rows)
        phi_fast = np.zeros((8, deltas.shape[1]), dtype=np.float32)
        merge_deltas(phi_fast, rows, deltas)
        phi_ref = np.zeros_like(phi_fast)
        ref_rows, ref_merged = sum_duplicate_rows(rows, deltas)
        phi_ref[ref_rows] += ref_merged
        np.testing.assert_array_equal(phi_fast, phi_ref)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 7), min_size=1, max_size=40))
    def test_index_add_same_contract(self, row_list):
        """``ops.index_add`` follows the identical tie semantics."""
        rows = np.asarray(row_list, dtype=np.int64)
        deltas = deltas_for(rows)
        dst = np.zeros((8, deltas.shape[1]), dtype=np.float32)
        NUMPY_OPS.index_add(dst, rows, deltas)
        ref = np.zeros_like(dst)
        merge_deltas(ref, rows, deltas)
        np.testing.assert_array_equal(dst, ref)

    def test_empty_rows_noop(self):
        phi = np.ones((3, 2), dtype=np.float32)
        merge_deltas(phi, np.empty(0, dtype=np.int64),
                     np.empty((0, 2), dtype=np.float32))
        np.testing.assert_array_equal(phi, np.ones((3, 2), np.float32))

    def test_single_occurrence_rows_copy_through(self):
        rows = np.array([4, 1, 6], dtype=np.int64)
        deltas = np.arange(9, dtype=np.float32).reshape(3, 3)
        urows, merged = sum_duplicate_rows(rows, deltas)
        np.testing.assert_array_equal(urows, [1, 4, 6])
        np.testing.assert_array_equal(merged, deltas[[1, 0, 2]])


class TestNumpyOpsTiers:
    """The f32 default is identity-cheap; the f64 tier is a real cast."""

    def test_default_upload_is_identity(self):
        host = np.zeros((4, 3), dtype=np.float32)
        assert NUMPY_OPS.upload(host) is host
        assert NUMPY_OPS.download(host) is host

    def test_f64_tier_round_trip(self):
        ops = NumpyOps(dtype=np.float64)
        host = np.arange(6, dtype=np.float32).reshape(2, 3)
        dev = ops.upload(host)
        assert dev.dtype == np.float64
        assert dev is not host
        np.testing.assert_array_equal(ops.download(dev), host)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_matches_closed_form(self, dtype):
        ops = NumpyOps(dtype=dtype)
        x = np.linspace(-12, 12, 97, dtype=dtype).reshape(1, 97)
        got = ops.sigmoid(ops.upload(x))
        want = 1.0 / (1.0 + np.exp(-np.clip(x.astype(np.float64), -6, 6)))
        np.testing.assert_allclose(got, want, atol=1e-6)
        inplace = ops.upload(x).copy()
        ops.sigmoid_(inplace)
        np.testing.assert_array_equal(inplace, got)

    def test_matmul_family_shapes(self):
        ops = NumpyOps(dtype=np.float64)
        a = ops.upload(np.random.default_rng(0).standard_normal((4, 3)))
        b = ops.upload(np.random.default_rng(1).standard_normal((5, 3)))
        np.testing.assert_allclose(ops.matmul_nt(a, b), a @ b.T)
        np.testing.assert_allclose(ops.matmul_tn(a[:, :2].copy(), a),
                                   a[:, :2].T @ a)


def step_case(seed, lifetimes, m_max=6, b_max=4):
    """Random lock-step block: garbage-filled padded lanes included."""
    rng = np.random.default_rng(seed)
    m_counts = rng.integers(0, m_max + 1, size=lifetimes)
    o_counts = rng.integers(1, b_max + 1, size=lifetimes)
    row_mask = (np.arange(m_max)[None, :] < m_counts[:, None]) \
        .astype(np.float32)
    col_mask = (np.arange(b_max)[None, :] < o_counts[:, None]) \
        .astype(np.float32)
    labels = np.zeros((lifetimes, m_max, b_max), dtype=np.float32)
    for c in range(lifetimes):          # one target column per valid row
        labels[c, np.arange(m_counts[c]),
               rng.integers(0, o_counts[c], size=m_counts[c])] = 1.0
    scores = rng.random((lifetimes, m_max, b_max))
    rates = rng.uniform(1e-4, 0.05, size=lifetimes)
    return scores, labels, row_mask, col_mask, rates


def unfused_gradient(scores, labels, row_mask, col_mask, rate):
    """The step kernel's gradient before labels and masks moved to plan
    time: the literal ``fill_``/``put_flat``/mask-multiply sequence, one
    learning rate (a Python float) per call."""
    grad = np.empty_like(scores)
    grad[...] = 0.0
    grad.reshape(-1)[np.flatnonzero(labels)] = 1.0
    grad -= scores
    grad *= rate
    grad *= row_mask[:, :, None]
    grad *= col_mask[:, None, :]
    return grad


class TestFusedStepGradient:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**16), lifetimes=st.integers(1, 6))
    def test_bytes_equal_unfused_chain(self, dtype, seed, lifetimes):
        ops = NumpyOps(dtype=dtype)
        scores, labels, row_mask, col_mask, rates = step_case(seed, lifetimes)
        scores = scores.astype(dtype)
        mask = row_mask[:, :, None] * col_mask[:, None, :]
        grad = ops.empty(scores.shape)
        ops.sub(ops.mask(labels), scores, grad)
        grad *= ops.upload(rates.reshape(-1, 1, 1))
        grad *= ops.mask(mask)
        for c in range(lifetimes):      # per-lifetime rate == scalar rate
            want = unfused_gradient(scores[c:c + 1], labels[c:c + 1],
                                    row_mask[c:c + 1], col_mask[c:c + 1],
                                    float(rates[c]))
            assert grad[c:c + 1].tobytes() == want.tobytes()
        # Padded lanes are (signed) zeros whatever the scores held there.
        assert not grad[mask == 0.0].any()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_scratch_rows_stay_zero_through_a_plan(self, dtype):
        """Padded lanes gather and scatter the scratch row; the mask must
        keep it at zero across every step of a real plan."""
        from repro.embedding import (EmbeddingModel, NegativeSampler,
                                     VectorizedDSGLLearner, Vocabulary)
        from repro.embedding.vectorized import plan_dsgl_slice
        from repro.utils.rng import CounterStream
        from repro.walks import Corpus

        rng = np.random.default_rng(4)
        corpus = Corpus(30)
        walks = [rng.integers(0, 30, size=n) for n in (9, 2, 5, 1, 7, 3)]
        for walk in walks:
            corpus.add_walk(walk)
        vocab = Vocabulary.from_corpus(corpus)
        cfg = TrainConfig(dim=8, window=3, negatives=3)
        ops = NumpyOps(dtype=dtype)
        learner = VectorizedDSGLLearner(
            EmbeddingModel(vocab, cfg.dim, seed=2), NegativeSampler(vocab),
            cfg, CounterStream(5), ops=ops)
        _, plan = plan_dsgl_slice([(learner, walks, 0.05)])
        assert (plan.cidx == plan.ctx_gather.size).any()    # padding exists
        ctx_mega, ctx_start, out_mega, _ = plan.gather(ops)
        plan.run_steps(ctx_mega, out_mega, ops)
        assert not ctx_mega[-1].any() and not out_mega[-1].any()
        assert (ctx_mega[:-1] != ctx_start[:-1]).any()      # it did train


class TestProgress64:
    """Satellite 3: lr progress is float64 whatever counted the tokens."""

    @pytest.mark.parametrize("cast", [int, np.int32, np.int64,
                                      np.float32, np.float64])
    def test_dtype_independent(self, cast):
        assert progress64(cast(12345), cast(54321)) \
            == progress64(12345, 54321)
        assert isinstance(progress64(cast(3), cast(7)), float)

    def test_float32_would_have_drifted(self):
        """The guard matters: a float32 ratio differs at these counts."""
        done, total = 11184811, 33554467
        exact = progress64(done, total)
        drifted = float(np.float32(done) / np.float32(total))
        assert exact != drifted
        assert abs(exact - done / total) == 0.0

    def test_zero_total_guard(self):
        assert progress64(0, 0) == 0.0
        assert progress64(5, 0) == 5.0  # max(1, 0) == 1 floor

    @pytest.mark.parametrize("name", sorted(SCHEDULES))
    def test_schedules_see_identical_progress(self, name):
        schedule = make_schedule(name, lr=0.05)
        for done in (0, 1, 999, 54321):
            assert schedule(progress64(np.float32(done), np.int32(54321))) \
                == schedule(progress64(done, 54321))
