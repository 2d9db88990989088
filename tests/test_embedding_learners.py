"""Tests for the Skip-Gram learners: SGNS, Pword2vec, pSGNScc, DSGL."""

from __future__ import annotations

import numpy as np
import pytest

from repro.embedding import (
    EmbeddingModel,
    LEARNERS,
    NegativeSampler,
    TrainConfig,
    Vocabulary,
    count_windows,
    iter_windows,
    sigmoid,
    window_batches,
)
from repro.utils.rng import CounterStream
from repro.walks import Corpus


def build_fixture(num_nodes=20, num_walks=12, walk_len=15, seed=3):
    rng = np.random.default_rng(seed)
    corpus = Corpus(num_nodes)
    for _ in range(num_walks):
        corpus.add_walk(rng.integers(0, num_nodes, size=walk_len))
    vocab = Vocabulary.from_corpus(corpus)
    sampler = NegativeSampler(vocab)
    return corpus, vocab, sampler


class TestWindows:
    def test_iter_windows_counts(self):
        walk = np.arange(6)
        windows = list(iter_windows(walk, window=2))
        assert len(windows) == 6
        target, ctx = windows[0]
        assert target == 0
        assert list(ctx) == [1, 2]

    def test_window_boundaries(self):
        walk = np.arange(5)
        windows = dict()
        for t, ctx in iter_windows(walk, window=10):
            windows[t] = list(ctx)
        # Full-span window: everything except the target itself.
        assert windows[2] == [0, 1, 3, 4]

    def test_singleton_walk_no_windows(self):
        assert list(iter_windows(np.array([7]), window=3)) == []

    def test_window_batches_lockstep(self):
        walks = [np.arange(4), np.arange(10, 13)]
        batches = list(window_batches(walks, window=2, group=2))
        # Lock-step: batches of 2 while both walks alive, then 1.
        assert [len(b) for b in batches] == [2, 2, 2, 1]

    def test_window_batches_group_one_is_sequential(self):
        walks = [np.arange(3), np.arange(3)]
        batches = list(window_batches(walks, window=1, group=1))
        assert all(len(b) == 1 for b in batches)
        assert len(batches) == 6

    def test_invalid_group(self):
        with pytest.raises(ValueError):
            list(window_batches([np.arange(3)], window=1, group=0))

    def test_count_windows(self):
        walks = [np.arange(5), np.array([1]), np.arange(3)]
        assert count_windows(walks, window=2) == 5 + 0 + 3


class TestModel:
    def test_initialisation(self):
        _, vocab, _ = build_fixture()
        model = EmbeddingModel(vocab, dim=16, seed=0)
        assert model.phi_in.shape == (vocab.size, 16)
        assert np.all(model.phi_out == 0.0)
        assert np.abs(model.phi_in).max() <= 0.5 / 16 + 1e-9

    def test_clone_independent(self):
        _, vocab, _ = build_fixture()
        model = EmbeddingModel(vocab, dim=8, seed=0)
        clone = model.clone()
        clone.phi_in[0] += 1.0
        assert not np.allclose(model.phi_in[0], clone.phi_in[0])

    def test_embeddings_node_space_roundtrip(self):
        _, vocab, _ = build_fixture()
        model = EmbeddingModel(vocab, dim=8, seed=0)
        node_emb = model.embeddings_node_space()
        for node in range(vocab.size):
            np.testing.assert_array_equal(
                node_emb[node], model.phi_in[vocab.node_to_row[node]]
            )

    def test_sigmoid_clipping(self):
        assert sigmoid(np.array([100.0]))[0] == pytest.approx(
            1.0 / (1.0 + np.exp(-6.0)))
        assert sigmoid(np.array([0.0]))[0] == pytest.approx(0.5)


@pytest.mark.parametrize("learner_name", sorted(LEARNERS))
class TestLearnerContract:
    def test_training_updates_parameters(self, learner_name):
        corpus, vocab, sampler = build_fixture()
        cfg = TrainConfig(dim=16, window=3, negatives=3)
        model = EmbeddingModel(vocab, cfg.dim, seed=1)
        before_in = model.phi_in.copy()
        learner = LEARNERS[learner_name](model, sampler, cfg,
                                         CounterStream(0))
        tokens = learner.train_walks(corpus.walks, lr=0.05)
        assert tokens == corpus.total_tokens
        assert not np.allclose(model.phi_in, before_in)
        assert np.abs(model.phi_out).sum() > 0.0

    def test_finite_parameters(self, learner_name):
        corpus, vocab, sampler = build_fixture()
        cfg = TrainConfig(dim=16, window=3, negatives=3)
        model = EmbeddingModel(vocab, cfg.dim, seed=1)
        learner = LEARNERS[learner_name](model, sampler, cfg,
                                         CounterStream(0))
        for _ in range(3):
            learner.train_walks(corpus.walks, lr=0.1)
        assert np.all(np.isfinite(model.phi_in))
        assert np.all(np.isfinite(model.phi_out))

    def test_deterministic(self, learner_name):
        corpus, vocab, sampler = build_fixture()
        cfg = TrainConfig(dim=8, window=2, negatives=2)
        outs = []
        for _ in range(2):
            model = EmbeddingModel(vocab, cfg.dim, seed=1)
            learner = LEARNERS[learner_name](model, sampler, cfg,
                                             CounterStream(7))
            learner.train_walks(corpus.walks, lr=0.05)
            outs.append(model.phi_in.copy())
        np.testing.assert_array_equal(outs[0], outs[1])


class TestLearnerSemantics:
    def test_positive_pairs_gain_similarity(self):
        """Training pushes co-occurring nodes' vectors together."""
        corpus = Corpus(6)
        # Nodes 0,1 always co-occur; nodes 4,5 never appear with 0.
        for _ in range(60):
            corpus.add_walk([0, 1, 0, 1, 0, 1])
            corpus.add_walk([2, 3, 4, 5, 4, 5])
        vocab = Vocabulary.from_corpus(corpus)
        sampler = NegativeSampler(vocab)
        cfg = TrainConfig(dim=16, window=2, negatives=2)
        model = EmbeddingModel(vocab, cfg.dim, seed=1)
        learner = LEARNERS["dsgl"](model, sampler, cfg, CounterStream(0))
        for _ in range(5):
            learner.train_walks(corpus.walks, lr=0.05)
        emb = model.embeddings_node_space()
        sim_01 = float(emb[0] @ emb[1])
        sim_04 = float(emb[0] @ emb[4])
        assert sim_01 > sim_04

    def test_dsgl_multi_window_count_affects_batching_not_validity(self):
        corpus, vocab, sampler = build_fixture()
        for mw in (1, 2, 4):
            cfg = TrainConfig(dim=8, window=2, negatives=2, multi_windows=mw)
            model = EmbeddingModel(vocab, cfg.dim, seed=1)
            learner = LEARNERS["dsgl"](model, sampler, cfg, CounterStream(0))
            tokens = learner.train_walks(corpus.walks, lr=0.05)
            assert tokens == corpus.total_tokens
            assert np.all(np.isfinite(model.phi_in))
