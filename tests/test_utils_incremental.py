"""Tests for the InCoM streaming statistics (Theorem 1 / Eq. 12-13).

These are the mathematically load-bearing pieces of the reproduction, so
they get exact property-based verification against batch recomputation.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.incremental import (
    IncrementalCorrelation,
    IncrementalEntropy,
    IncrementalMean,
)
from repro.utils.stats import entropy_of_sequence, r_squared

sequences = st.lists(st.integers(min_value=0, max_value=9),
                     min_size=1, max_size=60)


class TestIncrementalEntropy:
    def test_empty_has_zero_entropy(self):
        assert IncrementalEntropy().value == 0.0

    def test_single_symbol_zero_entropy(self):
        inc = IncrementalEntropy()
        assert inc.add("a") == pytest.approx(0.0)

    def test_two_distinct_symbols_one_bit(self):
        inc = IncrementalEntropy()
        inc.add("a")
        assert inc.add("b") == pytest.approx(1.0)

    def test_uniform_four_symbols(self):
        inc = IncrementalEntropy()
        for s in "abcd":
            inc.add(s)
        assert inc.value == pytest.approx(2.0)

    def test_repeats_have_zero_entropy(self):
        inc = IncrementalEntropy()
        for _ in range(10):
            inc.add("x")
        assert inc.value == pytest.approx(0.0, abs=1e-12)

    @given(sequences)
    @settings(max_examples=200, deadline=None)
    def test_matches_batch_recomputation(self, seq):
        """The O(1) update equals recomputing H from scratch at every step."""
        inc = IncrementalEntropy()
        for i, symbol in enumerate(seq):
            h = inc.add(symbol)
            assert h == pytest.approx(entropy_of_sequence(seq[: i + 1]),
                                      abs=1e-9)


class TestIncrementalMean:
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=50))
    @settings(max_examples=200, deadline=None)
    def test_matches_numpy_mean(self, values):
        inc = IncrementalMean()
        for i, v in enumerate(values):
            out = inc.add(v)
            assert out == pytest.approx(float(np.mean(values[: i + 1])),
                                        rel=1e-9, abs=1e-6)

    def test_eq13_recurrence_shape(self):
        """E_p = ((p-1)/p) E_{p-1} + x_p / p, checked explicitly."""
        inc = IncrementalMean()
        inc.add(4.0)
        prev = inc.value
        inc.add(10.0)
        assert inc.value == pytest.approx((1 / 2) * prev + 10.0 / 2)


class TestIncrementalCorrelation:
    def test_degenerate_returns_one(self):
        corr = IncrementalCorrelation()
        assert corr.r_squared == 1.0
        corr.add(1.0, 1.0)
        assert corr.r_squared == 1.0  # single point

    def test_constant_series_returns_one(self):
        corr = IncrementalCorrelation()
        for i in range(5):
            corr.add(3.0, float(i))
        assert corr.r_squared == 1.0

    def test_perfect_linear(self):
        corr = IncrementalCorrelation()
        for i in range(10):
            corr.add(2.0 * i + 1.0, float(i))
        assert corr.r_squared == pytest.approx(1.0, abs=1e-9)

    def test_perfect_negative_correlation(self):
        corr = IncrementalCorrelation()
        for i in range(10):
            corr.add(-1.5 * i, float(i))
        assert corr.correlation == pytest.approx(-1.0, abs=1e-9)
        assert corr.r_squared == pytest.approx(1.0, abs=1e-9)

    # Integer-valued floats keep the variance either exactly zero (both
    # implementations report the degenerate 1.0) or large enough that the
    # E(X²)−E(X)² cancellation stays far from the degeneracy threshold.
    @given(st.lists(st.tuples(
        st.integers(min_value=-100, max_value=100).map(float),
        st.integers(min_value=-100, max_value=100).map(float)),
        min_size=3, max_size=50))
    @settings(max_examples=200, deadline=None)
    def test_matches_batch_r_squared(self, pairs):
        corr = IncrementalCorrelation()
        xs, ys = [], []
        for x, y in pairs:
            corr.add(x, y)
            xs.append(x)
            ys.append(y)
        assert corr.r_squared == pytest.approx(r_squared(xs, ys),
                                               rel=1e-6, abs=1e-6)
