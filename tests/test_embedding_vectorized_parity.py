"""Reference parity: the batched learners vs the per-window references.

Under the shared RNG protocol (counter-based per-machine negative streams
from :mod:`repro.utils.rng`), the trainer's batched learners must
reproduce the reference learners of :mod:`oracles.embedding` exactly:
identical negative draws, identical token accounting, and embeddings
equal to far below float32 resolution (the contract is ``atol=1e-10``; in
practice the two are bit-equal because every gather, matrix product and
scatter runs on identical operands in the same order).  The suite covers
every batched learner on undirected, weighted and directed graphs across
1/2/4 simulated machines, plus the learner registry.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.embedding import (
    LEARNERS,
    DistributedTrainer,
    EmbeddingModel,
    NegativeSampler,
    PSGNSccLearner,
    TrainConfig,
    VectorizedDSGLLearner,
    VectorizedPword2vecLearner,
    VectorizedSGNSLearner,
    Vocabulary,
)
from repro.embedding import vectorized
from repro.embedding.anchor import AnchorRegularizer
from repro.embedding.trainer import WarmStart
from repro.embedding.vectorized import plan_dsgl_slice
from repro.graph import powerlaw_cluster
from repro.partition import MPGPPartitioner, WorkloadBalancePartitioner
from repro.runtime import Cluster, ExecutionContext
from repro.utils.rng import CounterStream
from repro.walks import Corpus, DistributedWalkEngine, WalkConfig

from oracles.embedding import LEARNERS as REFERENCE_LEARNERS
from oracles.embedding import train_reference

PARITY_LEARNERS = sorted(REFERENCE_LEARNERS)
ATOL = 1e-10


def make_corpus(num_nodes=40, num_walks=30, seed=3, min_len=1, max_len=18):
    """Mixed-length corpus, including length-1 walks (no windows)."""
    rng = np.random.default_rng(seed)
    corpus = Corpus(num_nodes)
    for _ in range(num_walks):
        corpus.add_walk(rng.integers(0, num_nodes,
                                     size=rng.integers(min_len, max_len)))
    return corpus


def walk_corpus(graph, machines=2, seed=9):
    """A corpus actually sampled by the (vectorized) walk engine."""
    part = WorkloadBalancePartitioner().partition(graph, machines)
    cluster = Cluster(machines, part.assignment, seed=seed)
    cfg = WalkConfig.distger(max_rounds=2, min_rounds=1)
    return DistributedWalkEngine(graph, cluster, cfg).run()


def train(kind, corpus, cluster, cfg, **kwargs):
    """``DistributedTrainer.train`` with the batched learners
    (``"vectorized"``) or the reference learners (``"loop"``)."""
    if kind == "loop":
        return train_reference(corpus, cluster, cfg, **kwargs)
    return DistributedTrainer(corpus, cluster, cfg, **kwargs).train()


def train_embeddings(corpus, kind, machines=2, walk_machines=None,
                     learner="dsgl", **overrides):
    assignment = np.zeros(corpus.occurrences.size, dtype=np.int64)
    cluster = Cluster(machines, assignment, seed=0)
    cfg = TrainConfig(dim=16, window=4, negatives=3, epochs=2, **overrides)
    return train(kind, corpus, cluster, cfg, learner=learner,
                 walk_machines=walk_machines)


class TestLearnerParity:
    """Direct learner-level parity: same model, sampler and stream."""

    @pytest.mark.parametrize("case", ("mixed", "pairs", "wide_window",
                                      "three_nodes", "small_plans"))
    @pytest.mark.parametrize("learner", PARITY_LEARNERS)
    def test_loop_equals_vectorized(self, learner, case, monkeypatch):
        """``pairs``: walks of two tokens; ``wide_window``: no walk longer
        than the window; ``three_nodes``: nodes repeat inside windows and
        five output rows over three vocabulary rows always repeat one --
        often a target drawn among its own negatives -- so a step
        scatters duplicate rows and the last write must win;
        ``small_plans``: a window plan holds a few walks, or one walk
        over the budget."""
        if case == "small_plans":
            monkeypatch.setattr(vectorized, "_WINDOW_PLAN_STEPS", 40)
        corpus = {"mixed": lambda: make_corpus(),
                  "small_plans": lambda: make_corpus(),
                  "pairs": lambda: make_corpus(min_len=2, max_len=3),
                  "wide_window": lambda: make_corpus(max_len=4),
                  "three_nodes": lambda: make_corpus(num_nodes=3)}[case]()
        vocab = Vocabulary.from_corpus(corpus)
        sampler = NegativeSampler(vocab)
        cfg = TrainConfig(dim=16, window=3, negatives=4, multi_windows=2)
        results = {}
        for kind, registry in (("loop", REFERENCE_LEARNERS),
                               ("vectorized", LEARNERS)):
            model = EmbeddingModel(vocab, cfg.dim, seed=1)
            inst = registry[learner](model, sampler, cfg,
                                     CounterStream(12345))
            tokens = inst.train_walks(corpus.walks, lr=0.05)
            results[kind] = (model.phi_in.copy(), model.phi_out.copy(),
                             tokens)
        assert results["loop"][2] == results["vectorized"][2] \
            == corpus.total_tokens
        np.testing.assert_allclose(results["loop"][0],
                                   results["vectorized"][0], atol=ATOL)
        np.testing.assert_allclose(results["loop"][1],
                                   results["vectorized"][1], atol=ATOL)

    @pytest.mark.parametrize("learner", PARITY_LEARNERS)
    def test_identical_negative_draws(self, learner):
        """Both learners consume the very same negative rows.

        A recording sampler captures every draw; the concatenated streams
        must be identical because draws are a pure function of the
        counter stream, not of how either learner batches them.
        """
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
        for kind, registry in (("loop", REFERENCE_LEARNERS),
                               ("vectorized", LEARNERS)):
            sampler = RecordingSampler(vocab)
            model = EmbeddingModel(vocab, cfg.dim, seed=1)
            inst = registry[learner](model, sampler, cfg,
                                     CounterStream(777))
            inst.train_walks(corpus.walks, lr=0.05)
            draws[kind] = np.concatenate(sampler.drawn)
        np.testing.assert_array_equal(draws["loop"], draws["vectorized"])

    def test_sgns_updates_the_output_rows_from_the_pre_update_context(self):
        """A two-token walk on a three-row model -- two pairs -- against
        the updates written out by hand: both blocks move by the gradient
        times the *other* block's pre-update rows, as in word2vec.c,
        which updates the context row only after the output loop."""
        corpus = Corpus(3)
        corpus.add_walk(np.arange(3))
        vocab = Vocabulary.from_corpus(corpus)
        sampler = NegativeSampler(vocab)
        cfg = TrainConfig(dim=4, window=1, negatives=2)
        walk, lr = np.array([2, 0]), 0.5
        start = np.random.default_rng(4).uniform(-1, 1, size=(2, 3, 4))
        phi_in, phi_out = start.copy()
        stream = CounterStream(8)
        first, second = vocab.rows_of(walk).tolist()
        for c_row, target in ((second, first), (first, second)):
            out_rows = np.concatenate(
                [[target], sampler.sample_rows_stream(2, stream)])
            x, outs = phi_in[c_row].copy(), phi_out[out_rows]
            score = 1.0 / (1.0 + np.exp(-np.clip(outs @ x, -6.0, 6.0)))
            grad = (np.eye(3)[0] - score) * lr
            phi_in[c_row] = x + grad @ outs
            phi_out[out_rows] = outs + np.outer(grad, x)  # last write wins
        for registry in (REFERENCE_LEARNERS, LEARNERS):
            model = EmbeddingModel(vocab, cfg.dim, seed=1)
            model.phi_in[:], model.phi_out[:] = start
            registry["sgns"](model, sampler, cfg,
                             CounterStream(8)).train_walks([walk], lr)
            np.testing.assert_allclose(model.phi_in, phi_in, atol=1e-6)
            np.testing.assert_allclose(model.phi_out, phi_out, atol=1e-6)

    def test_dsgl_multi_window_sizes(self):
        corpus = make_corpus(seed=11)
        vocab = Vocabulary.from_corpus(corpus)
        sampler = NegativeSampler(vocab)
        for mw in (1, 2, 4):
            cfg = TrainConfig(dim=8, window=2, negatives=2, multi_windows=mw)
            outs = {}
            for kind, registry in (("loop", REFERENCE_LEARNERS),
                                   ("vectorized", LEARNERS)):
                model = EmbeddingModel(vocab, cfg.dim, seed=1)
                registry["dsgl"](model, sampler, cfg,
                                 CounterStream(5)).train_walks(
                                     corpus.walks, lr=0.05)
                outs[kind] = model.phi_in.copy()
            np.testing.assert_allclose(outs["loop"], outs["vectorized"],
                                       atol=ATOL)


class TestTrainerParity:
    """End-to-end DistributedTrainer parity across machine counts."""

    @pytest.mark.parametrize("machines", (1, 2, 4))
    @pytest.mark.parametrize("learner", PARITY_LEARNERS)
    def test_machine_counts(self, learner, machines):
        corpus = make_corpus(num_nodes=50, num_walks=40, seed=7)
        results = {
            kind: train_embeddings(corpus, kind, machines=machines,
                                   learner=learner)
            for kind in ("loop", "vectorized")
        }
        assert results["loop"].tokens_processed == \
            results["vectorized"].tokens_processed
        np.testing.assert_allclose(results["loop"].embeddings,
                                   results["vectorized"].embeddings,
                                   atol=ATOL)

    @pytest.mark.parametrize("kind", ("undirected", "weighted", "directed"))
    def test_graph_families(self, kind):
        graph = powerlaw_cluster(120, attach=3, triangle_prob=0.4, seed=2)
        if kind == "weighted":
            graph = graph.with_random_weights(np.random.default_rng(3))
        elif kind == "directed":
            graph = graph.as_directed()
        walk_result = walk_corpus(graph)
        results = {}
        for kind in ("loop", "vectorized"):
            part = WorkloadBalancePartitioner().partition(graph, 2)
            cluster = Cluster(2, part.assignment, seed=0)
            cfg = TrainConfig(dim=16, epochs=1)
            results[kind] = train(kind, walk_result.corpus, cluster, cfg,
                                  learner="dsgl",
                                  walk_machines=walk_result.walk_machines)
        np.testing.assert_allclose(results["loop"].embeddings,
                                   results["vectorized"].embeddings,
                                   atol=ATOL)

    def test_sync_and_compute_accounting_identical(self):
        """Simulated cluster metrics are identical for both learners."""
        corpus = make_corpus(num_nodes=50, num_walks=40, seed=7)
        metrics = {}
        for kind in ("loop", "vectorized"):
            assignment = np.zeros(50, dtype=np.int64)
            cluster = Cluster(2, assignment, seed=0)
            cfg = TrainConfig(dim=8, window=3, negatives=2, epochs=1,
                              sync_mode="full", sync_period_tokens=100)
            train(kind, corpus, cluster, cfg)
            metrics[kind] = cluster.metrics
        a, b = metrics["loop"], metrics["vectorized"]
        assert a.compute_units == b.compute_units
        assert a.sync_bytes == b.sync_bytes

    def test_dsgl_threads_change_results_not_validity(self):
        corpus = make_corpus(num_nodes=50, num_walks=40, seed=7)
        outs = []
        for threads in (1, 4, 16):
            res = train_embeddings(corpus, "vectorized",
                                   dsgl_threads=threads)
            assert np.all(np.isfinite(res.embeddings))
            outs.append(res.embeddings)
        # Concurrency width is a semantic knob: widths differ ...
        assert not np.allclose(outs[0], outs[2], atol=1e-6)
        # ... but loop and vectorized agree at every width.
        for threads, emb in zip((1, 4, 16), outs):
            loop = train_embeddings(corpus, "loop", dsgl_threads=threads)
            np.testing.assert_allclose(loop.embeddings, emb, atol=ATOL)


def make_groups(cfg, shards, rates, vocab_nodes=40, seed=1):
    """Fresh ``(learner, walks, lr)`` groups: cloned replicas, one negative
    stream per machine -- what one sync round hands the learner."""
    corpus = Corpus(vocab_nodes)
    corpus.add_walk(np.arange(vocab_nodes))
    vocab = Vocabulary.from_corpus(corpus)
    sampler = NegativeSampler(vocab)
    base = EmbeddingModel(vocab, cfg.dim, seed=seed)
    return [(VectorizedDSGLLearner(base.clone(), sampler, cfg,
                                   CounterStream(1000 + g)),
             walks, lr)
            for g, (walks, lr) in enumerate(zip(shards, rates))]


def random_shards(machines, seed, cohort_walks, vocab_nodes=40):
    """Uneven shards: different cohort counts per machine, one machine
    whose second cohort holds only length-1 walks (that cohort plans to
    ``None`` on its own but still draws negatives), and -- from three
    machines up -- one machine with no slice at all this round."""
    rng = np.random.default_rng(seed)

    def walks(count, lo=1, hi=14):
        return [rng.integers(0, vocab_nodes, size=rng.integers(lo, hi))
                for _ in range(count)]

    shards = []
    for g in range(machines):
        if g == 1:
            shards.append(walks(cohort_walks) + walks(cohort_walks, 1, 2)
                          + walks(3))
        elif g == 2:
            shards.append([])
        else:
            shards.append(walks(cohort_walks * (g + 1) + g + 1))
    return shards


def replica_bytes(groups):
    return [(learner.model.phi_in.tobytes(), learner.model.phi_out.tobytes(),
             learner.neg_stream.counter) for learner, _, _ in groups]


class TestRoundStackedPlan:
    """One lock-step plan per cohort across machines ≡ machine by machine.

    The machines' slices of a sync round are replica-disjoint and their
    rates are fixed up front, so stacking cohort *j* of every machine
    must not change one byte of any replica, nor where any machine's
    negative stream ends.
    """

    CFG = dict(dim=8, window=3, negatives=3, multi_windows=2, dsgl_threads=3)

    @pytest.mark.parametrize("machines", (1, 2, 3, 4))
    def test_stacked_equals_machine_by_machine(self, machines):
        cfg = TrainConfig(**self.CFG)
        shards = random_shards(machines, seed=machines,
                               cohort_walks=cfg.dsgl_threads
                               * cfg.multi_windows)
        rates = [0.05 - 0.01 * g for g in range(machines)]
        apart = make_groups(cfg, shards, rates)
        used_apart = [learner.train_walks(walks, lr)
                      for learner, walks, lr in apart]
        stacked = make_groups(cfg, shards, rates)
        used_stacked = VectorizedDSGLLearner.train_round(stacked)
        assert used_stacked == used_apart == \
            [sum(w.size for w in walks) for walks in shards]
        assert replica_bytes(stacked) == replica_bytes(apart)
        # The length-1-only cohort drew its pool although it never trained.
        if machines > 1:
            assert stacked[1][0].neg_stream.counter == \
                cfg.negatives * used_stacked[1]

    def test_loop_reference_matches_stacked_round(self):
        """The per-lifetime reference (single group, ``c = 1`` plans) runs
        the same planner and step kernel as the stacked round."""
        cfg = TrainConfig(**self.CFG)
        shards = random_shards(3, seed=9, cohort_walks=6)
        rates = [0.04, 0.03, 0.02]
        stacked = make_groups(cfg, shards, rates)
        VectorizedDSGLLearner.train_round(stacked)
        for (fast, walks, lr) in stacked:
            model = make_groups(cfg, [walks], [lr])[0][0].model
            loop = REFERENCE_LEARNERS["dsgl"](
                model, fast.sampler, cfg, CounterStream(fast.neg_stream.key))
            loop.train_walks(walks, lr)
            assert model.phi_in.tobytes() == fast.model.phi_in.tobytes()
            assert model.phi_out.tobytes() == fast.model.phi_out.tobytes()
            assert loop.neg_stream.counter == fast.neg_stream.counter

    def test_wide_cohort_reduces_like_the_loop_reference(self):
        """``dsgl_threads=16`` on a skewed vocabulary: hot rows collect
        more than eight lifetimes' deltas, so the plan-time write-back
        takes its ``reduceat`` branch next to the layered one -- and must
        still equal the loop reference's run-time ``merge_deltas`` byte
        for byte."""
        cfg = TrainConfig(dim=8, window=3, negatives=3, multi_windows=2,
                          dsgl_threads=16)
        rng = np.random.default_rng(21)
        shards = [[(rng.random(rng.integers(2, 10)) ** 3 * 40).astype(np.int64)
                   for _ in range(count)] for count in (40, 33)]
        rates = [0.04, 0.03]
        _, plan = plan_dsgl_slice(
            [(learner, walks[:32], lr) for learner, walks, lr
             in make_groups(cfg, shards, rates)])
        for merge in (plan.ctx_merge, plan.out_merge):
            assert merge._wide > 0 and merge._layers[0] > 0
        stacked = make_groups(cfg, shards, rates)
        VectorizedDSGLLearner.train_round(stacked)
        for (fast, walks, lr) in stacked:
            model = make_groups(cfg, [walks], [lr])[0][0].model
            loop = REFERENCE_LEARNERS["dsgl"](
                model, fast.sampler, cfg, CounterStream(fast.neg_stream.key))
            loop.train_walks(walks, lr)
            assert model.phi_in.tobytes() == fast.model.phi_in.tobytes()
            assert model.phi_out.tobytes() == fast.model.phi_out.tobytes()

    def test_empty_round(self):
        assert VectorizedDSGLLearner.train_round([]) == []
        cfg = TrainConfig(**self.CFG)
        groups = make_groups(cfg, [[], []], [0.05, 0.05])
        before = replica_bytes(groups)
        assert VectorizedDSGLLearner.train_round(groups) == [0, 0]
        assert replica_bytes(groups) == before

    @pytest.mark.parametrize("machines", (1, 2, 3, 4))
    @pytest.mark.parametrize("extras", ("plain", "anchor", "warm"))
    def test_trainer_bytes_unchanged_by_stacking(self, machines, extras,
                                                 monkeypatch):
        """Full trainer, stacked vs one single-group round per machine:
        uneven shards (the last rounds miss machines), persona anchor,
        warm start."""
        corpus = make_corpus(num_nodes=50, num_walks=45, seed=machines)
        owners = np.random.default_rng(5).integers(
            0, machines, size=corpus.num_walks).tolist()
        prior = np.random.default_rng(6).normal(
            scale=0.1, size=(50, 16)).astype(np.float32)
        kwargs = {}
        if extras == "anchor":
            kwargs["anchor"] = AnchorRegularizer(prior, 0.3)
        if extras == "warm":
            kwargs["warm_start"] = WarmStart(prior, prior[::-1].copy())

        def run():
            cluster = Cluster(machines, np.zeros(50, dtype=np.int64), seed=0)
            cfg = TrainConfig(dim=16, window=4, negatives=3, epochs=2,
                              dsgl_threads=2, sync_period_tokens=60,
                              context=ExecutionContext("serial"))
            return DistributedTrainer(corpus, cluster, cfg,
                                      walk_machines=owners, **kwargs).train()

        stacked = run()
        whole_round = VectorizedDSGLLearner.train_round
        monkeypatch.setattr(
            VectorizedDSGLLearner, "train_round", staticmethod(
                lambda groups: [whole_round([g])[0] for g in groups]))
        apart = run()
        assert stacked.tokens_processed == apart.tokens_processed
        assert stacked.sync_rounds == apart.sync_rounds
        assert stacked.embeddings.tobytes() == apart.embeddings.tobytes()
        assert stacked.model.phi_out.tobytes() == \
            apart.model.phi_out.tobytes()

    @pytest.mark.parametrize("execution", ("process", "pipeline"))
    def test_slice_workers_single_group_path_matches_stacked(self,
                                                             execution):
        """The executors' workers plan the one group they were handed
        through the same planner and kernel; bytes match the stacked
        serial round (anchor on, uneven shards)."""
        corpus = make_corpus(num_nodes=50, num_walks=45, seed=2)
        owners = np.random.default_rng(5).integers(
            0, 3, size=corpus.num_walks).tolist()
        prior = np.random.default_rng(6).normal(
            scale=0.1, size=(50, 16)).astype(np.float32)
        results = {}
        for mode in ("serial", execution):
            cluster = Cluster(3, np.zeros(50, dtype=np.int64), seed=0)
            cfg = TrainConfig(dim=16, window=4, negatives=3, epochs=2,
                              dsgl_threads=2, sync_period_tokens=60,
                              context=ExecutionContext(mode, 2))
            results[mode] = DistributedTrainer(
                corpus, cluster, cfg, walk_machines=owners,
                anchor=AnchorRegularizer(prior, 0.3)).train()
        assert results[execution].embeddings.tobytes() == \
            results["serial"].embeddings.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(lengths=st.lists(st.lists(st.integers(1, 9), min_size=0,
                                     max_size=9),
                            min_size=1, max_size=3),
           seed=st.integers(0, 2**16))
    def test_ragged_layout_blocks_equal_per_lifetime_plans(self, lengths,
                                                           seed):
        """Every ``(step, lifetime)`` block of the ragged step-major
        tensors equals the same step of that lifetime planned alone (the
        dense ``[t, :1]`` form the loop reference runs), up to the
        lifetime's offset into the shared local buffers."""
        cfg = TrainConfig(dim=4, window=2, negatives=2, multi_windows=2)
        rng = np.random.default_rng(seed)
        shards = [[rng.integers(0, 20, size=n) for n in group]
                  for group in lengths]
        rates = [0.01 * (g + 1) for g in range(len(shards))]
        tokens, plan = plan_dsgl_slice(make_groups(cfg, shards, rates, 20))
        assert tokens == [sum(group) for group in lengths]
        singles = []          # per-lifetime plans, original lifetime order
        ctx_base = out_base = 0
        for learner, walks, lr in make_groups(cfg, shards, rates, 20):
            if not any(w.size > 1 for w in walks):
                continue      # whole group stays out of the stacked plan
            for start in range(0, len(walks), cfg.multi_windows):
                chunk = walks[start:start + cfg.multi_windows]
                rows = learner._rows(np.concatenate(chunk))
                if not rows.size:
                    continue
                drawn = CounterStream(learner.neg_stream.key,
                                      learner.neg_stream.counter)
                single = plan_dsgl_slice([(learner, chunk, lr)])[1]
                pool = learner.sampler.sample_rows_stream(
                    cfg.negatives * rows.size, drawn)
                # A lifetime without a trainable window plans to None
                # alone, yet owns buffer rows inside the stacked plan.
                sizes = (np.unique(rows).size,
                         np.unique(np.concatenate([rows, pool])).size)
                if single is not None:
                    assert sizes == (single.ctx_gather.size,
                                     single.out_gather.size)
                singles.append((single, lr, (ctx_base, out_base), sizes))
                ctx_base += sizes[0]
                out_base += sizes[1]
        if plan is None:
            assert not singles
            return
        assert (ctx_base, out_base) == (plan.ctx_gather.size,
                                        plan.out_gather.size)
        steps = [0 if single is None else single.num_steps
                 for single, _, _, _ in singles]
        order = np.argsort(-np.asarray(steps), kind="stable")
        off = plan.step_offsets
        assert off[-1] == sum(steps)
        for t in range(plan.num_steps):
            active = [i for i in order if steps[i] > t]
            assert off[t + 1] - off[t] == len(active)
            for pos, i in enumerate(active):
                single, lr, bases, sizes = singles[i]
                row = off[t] + pos
                for name, base, size, pad in (
                        ("cidx", bases[0], sizes[0], ctx_base),
                        ("oidx", bases[1], sizes[1], out_base)):
                    want = getattr(single, name)[t]
                    want = np.where(want == size, pad, want + base)
                    np.testing.assert_array_equal(
                        getattr(plan, name)[row], want)
                np.testing.assert_array_equal(plan.labels[row],
                                              single.labels[t])
                np.testing.assert_array_equal(plan.mask[row], single.mask[t])
                assert plan.lr[pos, 0, 0] == lr


class TestLearnerRegistry:
    def test_one_learner_per_name(self):
        """The batched learners everywhere semantics allow; pSGNScc keeps
        its loop (the measured baseline)."""
        assert LEARNERS == {"sgns": VectorizedSGNSLearner,
                            "pword2vec": VectorizedPword2vecLearner,
                            "dsgl": VectorizedDSGLLearner,
                            "psgnscc": PSGNSccLearner}

    def test_psgnscc_rejects_torch(self):
        """pSGNScc has no batched slice plan to run on torch; the trainer
        refuses before any round (the config is built without torch
        installed, so the field is set after validation)."""
        cfg = TrainConfig(dim=4)
        cfg.backend = "torch"
        cluster = Cluster(1, np.zeros(40, dtype=np.int64), seed=0)
        with pytest.raises(ValueError, match="psgnscc"):
            DistributedTrainer(make_corpus(), cluster, cfg,
                               learner="psgnscc")

    def test_invalid_names(self):
        with pytest.raises(ValueError, match="backend"):
            TrainConfig(backend="gpu")
        with pytest.raises(ValueError, match="dsgl_threads"):
            TrainConfig(dsgl_threads=0)


class TestSharedDrawPrimitives:
    def test_counter_stream_batch_invariant(self):
        a = CounterStream(42)
        b = CounterStream(42)
        chunks = np.concatenate([a.uniforms(3), a.uniforms(5), a.uniforms(2)])
        whole = b.uniforms(10)
        np.testing.assert_array_equal(chunks, whole)

    def test_sampler_stream_batch_invariant(self):
        corpus = make_corpus()
        sampler = NegativeSampler(Vocabulary.from_corpus(corpus))
        a, b = CounterStream(9), CounterStream(9)
        chunked = np.concatenate([sampler.sample_rows_stream(4, a),
                                  sampler.sample_rows_stream(6, a)])
        whole = sampler.sample_rows_stream(10, b)
        np.testing.assert_array_equal(chunked, whole)

    def test_stream_draw_distribution(self):
        corpus = make_corpus(num_walks=60, seed=21)
        sampler = NegativeSampler(Vocabulary.from_corpus(corpus))
        draws = sampler.sample_rows_stream(120_000, CounterStream(3))
        empirical = np.bincount(draws, minlength=len(sampler.probabilities))
        np.testing.assert_allclose(empirical / 120_000,
                                   sampler.probabilities, atol=5e-3)
