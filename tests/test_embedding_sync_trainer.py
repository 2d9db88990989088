"""Tests for synchronisation strategies and the distributed trainer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.embedding import (
    DistributedTrainer,
    EmbeddingModel,
    FullSync,
    HotnessBlockSync,
    NoSync,
    TrainConfig,
    Vocabulary,
    make_sync,
)
from repro.runtime import Cluster, ClusterMetrics
from repro.walks import Corpus


def fixture_models(num_machines=3, counts=(5, 5, 3, 1, 1, 0), dim=4):
    corpus = Corpus(len(counts))
    for node, n in enumerate(counts):
        for _ in range(n):
            corpus.add_walk([node])
    vocab = Vocabulary.from_corpus(corpus)
    base = EmbeddingModel(vocab, dim, seed=0)
    return [base if i == 0 else base.clone() for i in range(num_machines)]


class TestSyncStrategies:
    def test_factory(self):
        assert isinstance(make_sync("full"), FullSync)
        assert isinstance(make_sync("hotness"), HotnessBlockSync)
        assert isinstance(make_sync("none"), NoSync)
        with pytest.raises(KeyError):
            make_sync("sometimes")

    def test_full_sync_aligns_replicas(self, rng):
        models = fixture_models()
        sync = FullSync()
        sync.start(models)
        models[1].phi_in += 1.0
        sync.sync(models, rng)
        np.testing.assert_allclose(models[0].phi_in, models[1].phi_in)
        np.testing.assert_allclose(models[0].phi_in, models[2].phi_in)

    def test_average_rule_divides_step(self, rng):
        """Averaging: one machine's +3 delta becomes +1 across 3 replicas."""
        models = fixture_models()
        sync = FullSync(combine="average")
        sync.start(models)
        before = models[0].phi_in[0].copy()
        models[1].phi_in[0] = before + 3.0
        sync.sync(models, rng)
        np.testing.assert_allclose(models[0].phi_in[0], before + 1.0)

    def test_delta_rule_preserves_single_machine_updates(self, rng):
        """Delta-sum: a row touched by one machine is adopted exactly."""
        models = fixture_models()
        sync = FullSync(combine="delta")
        sync.start(models)
        before = models[0].phi_in[0].copy()
        models[1].phi_in[0] = before + 3.0
        sync.sync(models, rng)
        np.testing.assert_allclose(models[0].phi_in[0], before + 3.0)

    def test_hotness_skips_untrained_rows(self, rng):
        models = fixture_models()
        vocab = models[0].vocab
        sync = HotnessBlockSync()
        sync.start(models)
        rows = sync._select_rows(models, rng)
        # One row per non-zero block; zero-count block skipped.
        nonzero_blocks = [b for b in vocab.hotness_blocks()
                          if vocab.row_counts[b[0]] > 0]
        assert rows.size == len(nonzero_blocks)
        for row in rows:
            assert vocab.row_counts[row] > 0

    def test_hotness_traffic_less_than_full(self, rng):
        models = fixture_models()
        m_full, m_hot = ClusterMetrics(3), ClusterMetrics(3)
        full, hot = FullSync(), HotnessBlockSync()
        full.start(models)
        hot.start(models)
        full.sync(models, rng, m_full)
        hot.sync(models, rng, m_hot)
        assert m_hot.sync_bytes < m_full.sync_bytes

    def test_no_sync_does_nothing(self, rng):
        models = fixture_models()
        sync = NoSync()
        sync.start(models)
        models[1].phi_in += 1.0
        snapshot = models[0].phi_in.copy()
        sync.sync(models, rng)
        np.testing.assert_array_equal(models[0].phi_in, snapshot)

    def test_finalize_merges_all_contributions(self, rng):
        models = fixture_models()
        sync = NoSync()
        sync.start(models)
        base = models[0].phi_in[2].copy()
        models[0].phi_in[2] = base + 1.0
        models[1].phi_in[2] = base + 2.0
        final = sync.finalize(models)
        np.testing.assert_allclose(final.phi_in[2], base + 3.0)

    def test_invalid_combine(self):
        with pytest.raises(ValueError):
            FullSync(combine="median")


class TestDistributedTrainer:
    def make_corpus(self, num_nodes=30, seed=5):
        rng = np.random.default_rng(seed)
        corpus = Corpus(num_nodes)
        for _ in range(20):
            corpus.add_walk(rng.integers(0, num_nodes, size=12))
        return corpus

    def test_produces_embeddings(self):
        corpus = self.make_corpus()
        cluster = Cluster(2, np.zeros(30, dtype=np.int64), seed=0)
        cfg = TrainConfig(dim=8, window=2, negatives=2, epochs=1)
        result = DistributedTrainer(corpus, cluster, cfg).train()
        assert result.embeddings.shape == (30, 8)
        assert np.all(np.isfinite(result.embeddings))
        assert result.tokens_processed == corpus.total_tokens
        assert result.throughput > 0

    def test_epochs_multiply_tokens(self):
        corpus = self.make_corpus()
        cluster = Cluster(2, np.zeros(30, dtype=np.int64), seed=0)
        cfg = TrainConfig(dim=8, window=2, negatives=2, epochs=3)
        result = DistributedTrainer(corpus, cluster, cfg).train()
        assert result.tokens_processed == 3 * corpus.total_tokens

    def test_walk_machines_validated(self):
        corpus = self.make_corpus()
        cluster = Cluster(2, np.zeros(30, dtype=np.int64), seed=0)
        with pytest.raises(ValueError, match="align"):
            DistributedTrainer(corpus, cluster, TrainConfig(dim=4),
                               walk_machines=[0])

    @pytest.mark.parametrize("bad", [-1, 2, 0.5])
    def test_walk_machines_must_name_cluster_machines(self, bad):
        """-1 used to land in the last shard, 2 to raise a bare IndexError
        deep inside ``train``."""
        corpus = self.make_corpus()
        cluster = Cluster(2, np.zeros(30, dtype=np.int64), seed=0)
        with pytest.raises(ValueError, match="walk 3|integers"):
            DistributedTrainer(corpus, cluster, TrainConfig(dim=4),
                               walk_machines=[0, 1, 0, bad] + [1] * 16)

    def test_slices_and_rates_match_the_recorded_run(self):
        """Without subsampling the slice boundaries and the lr sequence
        are the ones recorded before slices were cut on raw lengths."""
        rng = np.random.default_rng(7)
        corpus = Corpus(40)
        for _ in range(120):
            corpus.add_walk(rng.integers(0, 40, size=int(rng.integers(1, 15))))
        machines = np.minimum(rng.integers(0, 5, size=120), 2)
        cluster = Cluster(3, np.zeros(40, dtype=np.int64), seed=0)
        cfg = TrainConfig(dim=8, window=3, negatives=2, epochs=2, seed=3,
                          sync_period_tokens=60)
        result = DistributedTrainer(corpus, cluster, cfg,
                                    walk_machines=machines).train()
        assert (result.sync_rounds, result.tokens_processed) == (10, 1758)
        assert np.abs(result.embeddings.astype(np.float64)).sum() == \
            pytest.approx(9.533524297730764, rel=1e-6)

    def test_shard_rebalancing(self):
        """Skewed walk placement gets rebalanced within ~10% by tokens."""
        corpus = Corpus(10)
        for _ in range(40):
            corpus.add_walk([0, 1, 2, 3, 4])
        machines = [0] * 36 + [1] * 4  # heavy skew to machine 0
        cluster = Cluster(2, np.zeros(10, dtype=np.int64), seed=0)
        trainer = DistributedTrainer(corpus, cluster, TrainConfig(dim=4),
                                     walk_machines=machines)
        shards = trainer._shards()
        tokens = [sum(w.size for w in s) for s in shards]
        assert max(tokens) <= 1.2 * min(tokens)

    def test_unknown_learner(self):
        corpus = self.make_corpus()
        cluster = Cluster(1, np.zeros(30, dtype=np.int64), seed=0)
        with pytest.raises(KeyError):
            DistributedTrainer(corpus, cluster, learner="doc2vec")

    def test_sync_traffic_recorded(self):
        corpus = self.make_corpus()
        cluster = Cluster(2, np.zeros(30, dtype=np.int64), seed=0)
        cfg = TrainConfig(dim=8, window=2, negatives=2, epochs=1,
                          sync_mode="full", sync_period_tokens=50)
        DistributedTrainer(corpus, cluster, cfg).train()
        assert cluster.metrics.sync_bytes > 0

    def test_hotness_cheaper_than_full(self):
        corpus = self.make_corpus()
        results = {}
        for mode in ("full", "hotness"):
            cluster = Cluster(2, np.zeros(30, dtype=np.int64), seed=0)
            cfg = TrainConfig(dim=8, window=2, negatives=2, epochs=1,
                              sync_mode=mode, sync_period_tokens=50)
            DistributedTrainer(corpus, cluster, cfg).train()
            results[mode] = cluster.metrics.sync_bytes
        assert results["hotness"] < results["full"]


class TestTrainerBoundaryGuards:
    """Bad rates and periods fail at the config; divergence at ``train``."""

    @pytest.mark.parametrize("period", [0, -5])
    def test_sync_period_must_be_positive(self, period):
        """A non-positive period never advances a shard cursor: the
        trainer used to spin forever instead of raising."""
        with pytest.raises(ValueError, match="sync_period_tokens"):
            TrainConfig(sync_period_tokens=period)

    @pytest.mark.parametrize("field", ["lr", "min_lr"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_rates_rejected(self, field, bad):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: bad})

    def test_min_lr_zero_still_allowed(self):
        assert TrainConfig(min_lr=0.0).min_lr == 0.0

    def test_diverged_run_raises_where_it_happens(self):
        """An absurd lr overflows float32; the trainer names the learner,
        the rate and the first offending row instead of publishing it."""
        corpus = Corpus(6)
        for _ in range(8):
            corpus.add_walk([0, 1, 2, 3, 4, 5, 0, 1, 2, 3])
        cluster = Cluster(1, np.zeros(6, dtype=np.int64), seed=0)
        cfg = TrainConfig(dim=4, window=2, negatives=2, epochs=2,
                          lr=1e38, min_lr=1e38)
        with np.errstate(all="ignore"), \
                pytest.raises(FloatingPointError,
                              match=r"dsgl.*lr=1e\+38.*row \d+"):
            DistributedTrainer(corpus, cluster, cfg).train()

    @pytest.mark.parametrize("execution", ["serial", "process"])
    def test_diverged_cohort_is_named_before_it_is_synced(self, execution):
        """The write-back refuses a non-finite merged block: the error
        comes from the cohort that produced it and names machine, rate,
        cohort and the offending row and node -- on the worker-pool
        executor too, where it crosses the process boundary."""
        corpus = Corpus(6)
        for _ in range(8):
            corpus.add_walk([0, 1, 2, 3, 4, 5, 0, 1, 2, 3])
        cluster = Cluster(2, np.zeros(6, dtype=np.int64), seed=0)
        cfg = TrainConfig(dim=4, window=2, negatives=2, epochs=2,
                          lr=1e38, min_lr=1e38, execution=execution,
                          workers=2)
        with np.errstate(all="ignore"), \
                pytest.raises(
                    FloatingPointError,
                    match=r"'dsgl' on machine [01] at lr=1e\+38, cohort 0: "
                          r"non-finite phi_(in|out) delta, first row \d+ "
                          r"\(node \d+\)"):
            DistributedTrainer(corpus, cluster, cfg).train()

    def test_refused_writeback_leaves_every_replica_untouched(self):
        """Both buffers are reduced and checked before either matrix of
        any replica is added to."""
        from repro.embedding import NegativeSampler, VectorizedDSGLLearner
        from repro.embedding.vectorized import plan_dsgl_slice
        from repro.utils.rng import CounterStream

        corpus = Corpus(6)
        walks = [np.array([0, 1, 2, 3, 4, 5, 0, 1]) for _ in range(4)]
        for walk in walks:
            corpus.add_walk(walk)
        vocab = Vocabulary.from_corpus(corpus)
        cfg = TrainConfig(dim=4, window=2, negatives=2)
        groups = []
        for machine, lr in enumerate((0.05, 1e38)):
            learner = VectorizedDSGLLearner(
                EmbeddingModel(vocab, cfg.dim, seed=machine),
                NegativeSampler(vocab), cfg, CounterStream(machine + 1))
            learner.machine = machine
            learner.model.phi_out += 0.25      # word2vec starts it at zero
            groups.append((learner, walks, lr))
        before = [(g[0].model.phi_in.copy(), g[0].model.phi_out.copy())
                  for g in groups]
        _, plan = plan_dsgl_slice(groups)
        with np.errstate(all="ignore"):
            ctx_mega, ctx_start, out_mega, out_start = plan.gather()
            plan.run_steps(ctx_mega, out_mega)
            with pytest.raises(FloatingPointError,
                               match=r"machine 1 at lr=1e\+38, cohort 0"):
                plan.apply_writeback(ctx_mega, ctx_start, out_mega,
                                     out_start)
        for (learner, _walks, _lr), (phi_in, phi_out) in zip(groups, before):
            assert learner.model.phi_in.tobytes() == phi_in.tobytes()
            assert learner.model.phi_out.tobytes() == phi_out.tobytes()


class TestSubsampling:
    def test_disabled_by_default(self):
        corpus = Corpus(5)
        for _ in range(5):
            corpus.add_walk([0, 1, 2, 3, 4])
        cluster = Cluster(1, np.zeros(5, dtype=np.int64), seed=0)
        cfg = TrainConfig(dim=4, window=2, negatives=1, epochs=1)
        result = DistributedTrainer(corpus, cluster, cfg).train()
        assert result.tokens_processed == corpus.total_tokens

    def test_subsampling_drops_frequent_tokens(self):
        corpus = Corpus(5)
        # Node 0 dominates the corpus.
        for _ in range(20):
            corpus.add_walk([0, 0, 0, 0, 1, 2, 3, 4])
        cluster = Cluster(1, np.zeros(5, dtype=np.int64), seed=0)
        cfg = TrainConfig(dim=4, window=2, negatives=1, epochs=1,
                          subsample=0.05)
        result = DistributedTrainer(corpus, cluster, cfg).train()
        assert 0 < result.tokens_processed < corpus.total_tokens

    def test_schedule_progress_counts_raw_tokens(self, monkeypatch):
        """Progress is cut on raw walk lengths (word2vec.c's word_count),
        so it ends within one slice of 1.0 whatever subsampling drops."""
        import repro.embedding.trainer as trainer_module

        seen = []
        monkeypatch.setattr(
            trainer_module, "make_schedule",
            lambda *args: lambda progress: seen.append(progress) or 0.025)
        corpus = Corpus(5)
        for _ in range(20):
            corpus.add_walk([0, 0, 0, 0, 1, 2, 3, 4])
        cluster = Cluster(1, np.zeros(5, dtype=np.int64), seed=0)
        cfg = TrainConfig(dim=4, window=2, negatives=1, epochs=2,
                          subsample=0.05, sync_period_tokens=16)
        result = DistributedTrainer(corpus, cluster, cfg).train()
        assert result.tokens_processed < 2 * corpus.total_tokens
        assert seen[-1] == pytest.approx(1.0 - 16 / (2 * corpus.total_tokens))

    def test_keep_probabilities_shape(self):
        corpus = Corpus(3)
        corpus.add_walk([0, 0, 0, 1])
        cluster = Cluster(1, np.zeros(3, dtype=np.int64), seed=0)
        trainer = DistributedTrainer(
            corpus, cluster, TrainConfig(dim=4, subsample=0.1)
        )
        keep = trainer._keep_probabilities()
        assert keep.shape == (3,)
        # The most frequent node has the lowest keep probability.
        assert keep[0] == min(keep[0], keep[1])
        assert np.all((0.0 <= keep) & (keep <= 1.0))

    def test_invalid_subsample_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(subsample=-1.0)
