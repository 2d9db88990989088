"""Tests for pSGNScc's inverted-index window combining."""

from __future__ import annotations

import numpy as np

from repro.embedding import (
    EmbeddingModel,
    NegativeSampler,
    PSGNSccLearner,
    TrainConfig,
    Vocabulary,
)
from repro.utils.rng import CounterStream
from repro.walks import Corpus


def fixture(seed=3):
    rng = np.random.default_rng(seed)
    corpus = Corpus(12)
    for _ in range(8):
        corpus.add_walk(rng.integers(0, 12, size=14))
    vocab = Vocabulary.from_corpus(corpus)
    return corpus, vocab, NegativeSampler(vocab)


class TestPSGNScc:
    def test_processes_every_window_once(self):
        """Combined or not, each window contributes exactly once: the token
        count returned must equal the corpus token count."""
        corpus, vocab, sampler = fixture()
        cfg = TrainConfig(dim=8, window=3, negatives=4)
        model = EmbeddingModel(vocab, cfg.dim, seed=1)
        learner = PSGNSccLearner(model, sampler, cfg, CounterStream(0))
        tokens = learner.train_walks(corpus.walks, lr=0.05)
        assert tokens == corpus.total_tokens

    def test_pairing_actually_happens(self):
        """With a repetitive walk, negatives frequently hit other windows'
        targets, so partner windows must be found and merged (observable
        through the deterministic update trace differing from Pword2vec)."""
        from repro.embedding import LEARNERS
        corpus = Corpus(4)
        for _ in range(5):
            corpus.add_walk(np.array([0, 1, 2, 3] * 4))
        vocab = Vocabulary.from_corpus(corpus)
        sampler = NegativeSampler(vocab)
        cfg = TrainConfig(dim=8, window=2, negatives=3)
        out = {}
        for name, cls in (("psgnscc", PSGNSccLearner),
                          ("pword2vec", LEARNERS["pword2vec"])):
            model = EmbeddingModel(vocab, cfg.dim, seed=1)
            learner = cls(model, sampler, cfg, CounterStream(0))
            learner.train_walks(corpus.walks, lr=0.05)
            out[name] = model.phi_in.copy()
        # Same seed, same corpus -- but the combined batches change the
        # update order, so the traces must differ if pairing ever fired.
        assert not np.allclose(out["psgnscc"], out["pword2vec"])

    def test_updates_stay_finite_under_repetition(self):
        corpus = Corpus(3)
        for _ in range(10):
            corpus.add_walk(np.array([0, 1, 0, 1, 2] * 3))
        vocab = Vocabulary.from_corpus(corpus)
        sampler = NegativeSampler(vocab)
        cfg = TrainConfig(dim=8, window=2, negatives=2)
        model = EmbeddingModel(vocab, cfg.dim, seed=1)
        learner = PSGNSccLearner(model, sampler, cfg, CounterStream(0))
        for _ in range(5):
            learner.train_walks(corpus.walks, lr=0.1)
        assert np.all(np.isfinite(model.phi_in))
