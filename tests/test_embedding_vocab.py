"""Tests for the frequency-ordered vocabulary and negative sampler."""

from __future__ import annotations

import numpy as np
import pytest

from repro.embedding import NegativeSampler, Vocabulary
from repro.utils.rng import CounterStream
from repro.walks import Corpus


def corpus_with_counts(counts):
    """Corpus whose node occurrence counts equal ``counts``."""
    c = Corpus(len(counts))
    for node, n in enumerate(counts):
        for _ in range(n):
            c.add_walk([node])
    return c


class TestVocabulary:
    def test_frequency_order_descending(self):
        c = corpus_with_counts([3, 7, 1, 5])
        v = Vocabulary.from_corpus(c)
        assert list(v.row_to_node) == [1, 3, 0, 2]
        assert list(v.row_counts) == [7, 5, 3, 1]

    def test_inverse_mapping(self):
        c = corpus_with_counts([3, 7, 1, 5])
        v = Vocabulary.from_corpus(c)
        for node in range(4):
            assert v.row_to_node[v.node_to_row[node]] == node

    def test_rows_of_vectorised(self):
        c = corpus_with_counts([3, 7, 1])
        v = Vocabulary.from_corpus(c)
        rows = v.rows_of(np.array([1, 1, 2]))
        assert list(rows) == [0, 0, 2]

    def test_hotness_blocks_partition_rows(self):
        c = corpus_with_counts([5, 5, 3, 3, 3, 1, 0])
        v = Vocabulary.from_corpus(c)
        blocks = v.hotness_blocks()
        # Blocks: counts 5 (rows 0-1), 3 (2-4), 1 (5), 0 (6).
        assert blocks == [(0, 2), (2, 5), (5, 6), (6, 7)]
        # Blocks exactly cover the row space.
        assert blocks[0][0] == 0
        assert blocks[-1][1] == v.size
        for (s1, e1), (s2, e2) in zip(blocks, blocks[1:]):
            assert e1 == s2

    def test_block_count_bounded_by_max_occurrence(self):
        """The paper's O(ocn_max) bound on hotness-block count."""
        c = corpus_with_counts([9, 4, 4, 2, 1, 1, 1])
        v = Vocabulary.from_corpus(c)
        nonzero_blocks = [b for b in v.hotness_blocks()
                          if v.row_counts[b[0]] > 0]
        assert len(nonzero_blocks) <= v.row_counts[0]

    def test_reorder_to_node_space(self):
        c = corpus_with_counts([1, 3, 2])
        v = Vocabulary.from_corpus(c)
        matrix = np.arange(v.size * 2, dtype=float).reshape(v.size, 2)
        node_matrix = v.reorder_to_node_space(matrix)
        for node in range(3):
            np.testing.assert_array_equal(
                node_matrix[node], matrix[v.node_to_row[node]]
            )


class TestNegativeSampler:
    def test_distribution_follows_power(self, rng):
        c = corpus_with_counts([16, 1, 0])
        sampler = NegativeSampler(Vocabulary.from_corpus(c), power=0.75)
        probs = sampler.probabilities
        # row 0 = node 0 (count 16), row 1 = node 1 (count 1).
        expected0 = 16**0.75 / (16**0.75 + 1.0)
        assert probs[0] == pytest.approx(expected0, abs=1e-9)

    def test_zero_count_rows_never_sampled(self):
        c = corpus_with_counts([5, 5, 0])
        vocab = Vocabulary.from_corpus(c)
        rows = NegativeSampler(vocab).sample_rows_stream(2000,
                                                         CounterStream(1))
        assert 2 not in set(int(x) for x in vocab.row_to_node[rows])

    def test_power_zero_is_uniform_over_support(self):
        c = corpus_with_counts([100, 1])
        sampler = NegativeSampler(Vocabulary.from_corpus(c), power=0.0)
        rows = sampler.sample_rows_stream(4000, CounterStream(2))
        freq = np.bincount(rows, minlength=2) / 4000
        np.testing.assert_allclose(freq, [0.5, 0.5], atol=0.05)

    def test_invalid_power(self):
        c = corpus_with_counts([1, 1])
        with pytest.raises(ValueError):
            NegativeSampler(Vocabulary.from_corpus(c), power=2.0)
