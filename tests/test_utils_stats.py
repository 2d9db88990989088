"""Tests for batch statistics helpers (reference implementations)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.stats import (
    entropy_of_counts,
    entropy_of_sequence,
    kl_divergence,
    r_squared,
)


class TestEntropy:
    def test_uniform_counts(self):
        assert entropy_of_counts([5, 5, 5, 5]) == pytest.approx(2.0)

    def test_empty(self):
        assert entropy_of_counts([]) == 0.0
        assert entropy_of_sequence([]) == 0.0

    def test_zero_counts_ignored(self):
        assert entropy_of_counts([4, 0, 4]) == pytest.approx(1.0)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            entropy_of_counts([1, -1])

    def test_sequence_matches_counts(self):
        seq = ["a", "b", "a", "c", "a"]
        assert entropy_of_sequence(seq) == pytest.approx(
            entropy_of_counts([3, 1, 1])
        )

    @given(st.lists(st.integers(min_value=0, max_value=50),
                    min_size=1, max_size=20).filter(lambda c: sum(c) > 0))
    @settings(max_examples=100, deadline=None)
    def test_entropy_bounds(self, counts):
        h = entropy_of_counts(counts)
        support = sum(1 for c in counts if c > 0)
        assert -1e-9 <= h <= np.log2(max(support, 1)) + 1e-9


class TestKLDivergence:
    def test_identical_distributions_zero(self):
        p = np.array([0.2, 0.3, 0.5])
        assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-9)

    def test_non_negative(self, rng):
        for _ in range(20):
            p = rng.random(8) + 0.01
            q = rng.random(8) + 0.01
            assert kl_divergence(p, q) >= -1e-9

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            kl_divergence(np.ones(3), np.ones(4))

    def test_zero_mass_rejected(self):
        with pytest.raises(ValueError, match="positive mass"):
            kl_divergence(np.zeros(3), np.ones(3))

    def test_handles_zero_q_entries(self):
        p = np.array([0.5, 0.5])
        q = np.array([1.0, 0.0])
        assert np.isfinite(kl_divergence(p, q))


class TestRSquared:
    def test_perfect_line(self):
        x = [1.0, 2.0, 3.0, 4.0]
        y = [3.0, 5.0, 7.0, 9.0]
        assert r_squared(x, y) == pytest.approx(1.0)

    def test_degenerate_short(self):
        assert r_squared([1.0], [2.0]) == 1.0

    def test_constant_series(self):
        assert r_squared([5.0] * 4, [1.0, 2.0, 3.0, 4.0]) == 1.0

    def test_matches_numpy_corrcoef(self, rng):
        for _ in range(20):
            x = rng.random(15)
            y = rng.random(15)
            expected = float(np.corrcoef(x, y)[0, 1]) ** 2
            assert r_squared(x, y) == pytest.approx(expected, abs=1e-9)
