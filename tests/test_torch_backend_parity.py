"""numpy ↔ torch byte-parity for the trainer's array-ops seam.

Skips wholesale when the optional torch dependency is absent (tier-1
stays torch-free; CI's ``torch-backend`` job runs this file for real).

The torch-CPU tier is not "approximately" the numpy backend -- it *is*
the numpy arithmetic: reduction and transcendental primitives route
through zero-copy ``tensor.numpy()`` views into the very BLAS/libm calls
``NumpyOps`` makes, and exact-IEEE elementwise work stays on tensors.
So the contract here is byte equality, not a tolerance:

* ``torch_dtype="float32"`` on CPU  ≡  the default numpy backend, for
  every batched learner, at 1/2/4 machines, including negative draws,
  duplicate-row delta reconciliation, the process executor, and the
  full ``embed_graph`` pipeline;
* ``torch_dtype="float64"`` on CPU  ≡  ``NumpyOps(float64)``, the
  reference the parity tier is pinned against.

CUDA (when present) is the quality tier instead: float32 kernels with
their own rounding, gated on the golden AUC band -- see
``benchmarks/bench_table9_gpu.py --backend torch`` for the measured
Table-9-style comparison.
"""

from __future__ import annotations

import numpy as np
import pytest

torch = pytest.importorskip("torch")

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import embed_graph
from repro.embedding import (
    LEARNERS,
    DistributedTrainer,
    EmbeddingModel,
    NegativeSampler,
    TrainConfig,
    Vocabulary,
)
from repro.embedding.ops import NUMPY_OPS, NumpyOps, TorchOps, resolve_ops
from repro.graph import load, powerlaw_cluster
from repro.runtime import Cluster, ExecutionContext
from repro.tasks import auc_from_split, split_edges
from repro.utils.rng import CounterStream
from repro.walks import Corpus

#: The batched learners (pSGNScc has no slice plan to run on torch).
PARITY_LEARNERS = sorted(set(LEARNERS) - {"psgnscc"})


def make_corpus(num_nodes=40, num_walks=30, seed=3, min_len=1, max_len=18):
    rng = np.random.default_rng(seed)
    corpus = Corpus(num_nodes)
    for _ in range(num_walks):
        corpus.add_walk(rng.integers(0, num_nodes,
                                     size=rng.integers(min_len, max_len)))
    return corpus


def train_embeddings(corpus, machines=2, learner="dsgl", **overrides):
    assignment = np.zeros(corpus.occurrences.size, dtype=np.int64)
    cluster = Cluster(machines, assignment, seed=0)
    cfg = TrainConfig(dim=16, window=4, negatives=3, epochs=2, **overrides)
    trainer = DistributedTrainer(corpus, cluster, cfg, learner=learner)
    return trainer.train()


def learner_pass(learner, ops, dtype, seed=1):
    """One train_walks pass with explicit ops; returns final matrices."""
    corpus = make_corpus()
    vocab = Vocabulary.from_corpus(corpus)
    cfg = TrainConfig(dim=16, window=3, negatives=4, multi_windows=2)
    model = EmbeddingModel(vocab, cfg.dim, seed=seed)
    inst = LEARNERS[learner](
        model, NegativeSampler(vocab), cfg, CounterStream(12345), ops=ops)
    inst.train_walks(corpus.walks, lr=0.05)
    return model.phi_in.copy(), model.phi_out.copy()


class TestConfigResolution:
    def test_resolve_ops_returns_torch(self):
        cfg = TrainConfig(backend="torch", torch_device="cpu")
        ops = resolve_ops(cfg)
        assert isinstance(ops, TorchOps)
        assert ops.device == "cpu"
        assert ops.dtype == np.dtype(np.float64)  # auto: f64 on CPU

    def test_auto_dtype_is_float64_on_cpu(self):
        cfg = TrainConfig(backend="torch", torch_device="cpu")
        assert cfg.resolved_torch_dtype() == "float64"

    def test_cuda_rejects_forked_executors(self):
        with pytest.raises(ValueError, match="serial"):
            TrainConfig(backend="torch", torch_device="cuda",
                        context=ExecutionContext("process", 2))

    def test_cuda_without_device_raises_at_ops(self):
        if torch.cuda.is_available():
            pytest.skip("CUDA present; the unavailability path can't fire")
        with pytest.raises(RuntimeError, match="CUDA"):
            TorchOps(device="cuda")


class TestLearnerByteParity:
    """Learner-level: same model, sampler, stream -- only ops differ."""

    @pytest.mark.parametrize("learner", PARITY_LEARNERS)
    def test_torch_cpu_f32_equals_default_numpy(self, learner):
        ref_in, ref_out = learner_pass(learner, NUMPY_OPS, np.float32)
        got_in, got_out = learner_pass(
            learner, TorchOps(device="cpu", dtype=np.float32), np.float32)
        np.testing.assert_array_equal(got_in, ref_in)
        np.testing.assert_array_equal(got_out, ref_out)

    @pytest.mark.parametrize("learner", PARITY_LEARNERS)
    def test_torch_cpu_f64_equals_numpy_f64(self, learner):
        ref_in, ref_out = learner_pass(
            learner, NumpyOps(dtype=np.float64), np.float64)
        got_in, got_out = learner_pass(
            learner, TorchOps(device="cpu", dtype=np.float64), np.float64)
        np.testing.assert_array_equal(got_in, ref_in)
        np.testing.assert_array_equal(got_out, ref_out)


class TestTrainerByteParity:
    """Trainer-level: the full sync/reconciliation machinery rides along."""

    @pytest.mark.parametrize("learner", PARITY_LEARNERS)
    @pytest.mark.parametrize("machines", [1, 2, 4])
    def test_torch_backend_equals_vectorized(self, learner, machines):
        corpus = make_corpus(seed=11)
        ref = train_embeddings(corpus, machines=machines, learner=learner,
                               backend="auto")
        got = train_embeddings(corpus, machines=machines, learner=learner,
                               backend="torch", torch_device="cpu",
                               torch_dtype="float32")
        np.testing.assert_array_equal(got, ref)

    def test_identical_negative_draws(self):
        """The torch backend consumes the very same counter draws."""
        corpus = make_corpus(seed=5)
        vocab = Vocabulary.from_corpus(corpus)

        class RecordingSampler(NegativeSampler):
            def __init__(self, vocab):
                super().__init__(vocab)
                self.drawn = []

            def sample_rows_stream(self, count, stream):
                rows = super().sample_rows_stream(count, stream)
                self.drawn.append(rows)
                return rows

        cfg = TrainConfig(dim=8, window=3, negatives=3)
        draws = {}
        for kind, ops in (("numpy", NUMPY_OPS),
                          ("torch", TorchOps(device="cpu",
                                             dtype=np.float32))):
            sampler = RecordingSampler(vocab)
            model = EmbeddingModel(vocab, cfg.dim, seed=1)
            inst = LEARNERS["dsgl"](
                model, sampler, cfg, CounterStream(777), ops=ops)
            inst.train_walks(corpus.walks, lr=0.05)
            draws[kind] = np.concatenate([d.reshape(-1)
                                          for d in sampler.drawn])
        np.testing.assert_array_equal(draws["torch"], draws["numpy"])

    def test_process_executor_parity(self):
        """CPU torch composes with the process executor byte-for-byte."""
        corpus = make_corpus(seed=13)
        ref = train_embeddings(corpus, learner="dsgl",
                               backend="torch", torch_device="cpu",
                               torch_dtype="float32")
        got = train_embeddings(corpus, learner="dsgl",
                               backend="torch", torch_device="cpu",
                               torch_dtype="float32",
                               context=ExecutionContext("process", 2))
        np.testing.assert_array_equal(got, ref)


class TestOpsByteParity:
    """Primitive-level: the seam's kernels, driven directly."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 7), min_size=1, max_size=40))
    def test_index_add_ties_reconcile_identically(self, row_list):
        rows = np.asarray(row_list, dtype=np.int64)
        rng = np.random.default_rng(rows.size * 31 + 7)
        scale = 10.0 ** rng.integers(-3, 4, size=(rows.size, 1))
        deltas = (rng.standard_normal((rows.size, 5)) * scale) \
            .astype(np.float32)
        ref = np.zeros((8, 5), dtype=np.float32)
        NUMPY_OPS.index_add(ref, rows, deltas)
        ops = TorchOps(device="cpu", dtype=np.float32)
        dst = ops.upload(np.zeros((8, 5), dtype=np.float32))
        ops.index_add(dst, ops.const(rows), ops.upload(deltas))
        np.testing.assert_array_equal(ops.download(dst), ref)

    def test_sigmoid_bytes_match(self):
        x = np.linspace(-12, 12, 97, dtype=np.float32).reshape(1, 97)
        ops = TorchOps(device="cpu", dtype=np.float32)
        got = ops.download(ops.sigmoid(ops.upload(x.copy())))
        np.testing.assert_array_equal(got, NUMPY_OPS.sigmoid(x.copy()))
        t = ops.upload(x.copy())
        ops.sigmoid_(t)
        host = x.copy()
        NUMPY_OPS.sigmoid_(host)
        np.testing.assert_array_equal(ops.download(t), host)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_fused_step_gradient_bytes_match(self, dtype):
        """``sub`` → ``×lr`` → ``×mask`` on tensors ≡ the NumPy seam ≡ the
        unfused fill/put/mask chain (padded lanes included)."""
        rng = np.random.default_rng(11)
        lifetimes, m_max, b_max = 5, 6, 4
        m_counts = rng.integers(0, m_max + 1, size=lifetimes)
        o_counts = rng.integers(1, b_max + 1, size=lifetimes)
        mask = ((np.arange(m_max)[None, :, None] < m_counts[:, None, None])
                & (np.arange(b_max)[None, None, :]
                   < o_counts[:, None, None])).astype(np.float32)
        labels = np.zeros_like(mask)
        for c in range(lifetimes):
            labels[c, np.arange(m_counts[c]),
                   rng.integers(0, o_counts[c], size=m_counts[c])] = 1.0
        scores = rng.random((lifetimes, m_max, b_max)).astype(dtype)
        rates = rng.uniform(1e-4, 0.05, size=(lifetimes, 1, 1))
        grads = []
        for ops in (NumpyOps(dtype=dtype),
                    TorchOps(device="cpu", dtype=dtype)):
            grad = ops.empty(scores.shape)
            ops.sub(ops.mask(labels), ops.upload(scores.copy()), grad)
            grad *= ops.upload(rates)
            grad *= ops.mask(mask)
            grads.append(np.array(ops.download(grad)))
        assert grads[0].tobytes() == grads[1].tobytes()
        for c in range(lifetimes):      # the chain the fusion replaced
            want = np.zeros((m_max, b_max), dtype=dtype)
            want.reshape(-1)[np.flatnonzero(labels[c])] = 1.0
            want -= scores[c]
            want *= float(rates[c, 0, 0])
            want *= mask[c].any(axis=1)[:, None]
            want *= mask[c].any(axis=0)[None, :]
            assert grads[1][c].tobytes() == want.tobytes()

    def test_matmul_bytes_match(self):
        rng = np.random.default_rng(3)
        ops = TorchOps(device="cpu", dtype=np.float32)
        stack_a = rng.standard_normal((3, 6, 4)).astype(np.float32)
        stack_b = rng.standard_normal((3, 5, 4)).astype(np.float32)
        out = ops.empty((3, 6, 5))
        ops.bmm_nt(ops.upload(stack_a), ops.upload(stack_b), out)
        ref = np.empty((3, 6, 5), dtype=np.float32)
        NUMPY_OPS.bmm_nt(stack_a, stack_b, ref)
        np.testing.assert_array_equal(ops.download(out), ref)


class TestGoldenPipelineTorch:
    """End-to-end: the golden run under ``train_backend="torch"``."""

    @pytest.fixture(scope="class")
    def golden_pair(self):
        graph = load("FL", scale=0.5).graph
        split = split_edges(graph, test_fraction=0.3, seed=1)
        ref = embed_graph(split.train_graph, method="distger",
                          num_machines=2, dim=24, epochs=4, seed=7)
        got = embed_graph(split.train_graph, method="distger",
                          num_machines=2, dim=24, epochs=4, seed=7,
                          train_backend="torch", torch_device="cpu",
                          torch_dtype="float32")
        return ref, got, split

    def test_embeddings_byte_equal(self, golden_pair):
        ref, got, _ = golden_pair
        np.testing.assert_array_equal(got.embeddings, ref.embeddings)

    def test_auc_in_band(self, golden_pair):
        _, got, split = golden_pair
        auc = auc_from_split(got.embeddings, split)
        assert abs(auc - 0.9386) <= 0.05

    def test_f64_tier_stays_in_band(self):
        """auto dtype (f64 on CPU) has no byte contract vs the f32
        default -- it must land in the golden quality band instead."""
        graph = powerlaw_cluster(120, attach=3, triangle_prob=0.4, seed=5)
        split = split_edges(graph, test_fraction=0.3, seed=2)
        got = embed_graph(split.train_graph, method="distger",
                          num_machines=2, dim=24, epochs=4, seed=7,
                          train_backend="torch", torch_device="cpu")
        ref = embed_graph(split.train_graph, method="distger",
                          num_machines=2, dim=24, epochs=4, seed=7)
        got_auc = auc_from_split(got.embeddings, split)
        ref_auc = auc_from_split(ref.embeddings, split)
        assert abs(got_auc - ref_auc) <= 0.05
