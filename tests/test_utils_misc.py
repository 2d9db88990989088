"""Tests for RNG management, timers, and validation helpers."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.utils import (
    Timer,
    check_fraction,
    check_positive,
    check_probability,
    default_rng,
    spawn_rngs,
)
from repro.utils.rng import derive_seed
from repro.utils.validation import check_int_in_range


class TestRNG:
    def test_default_rng_from_int(self):
        a = default_rng(42).random(5)
        b = default_rng(42).random(5)
        np.testing.assert_array_equal(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(1)
        assert default_rng(gen) is gen

    def test_spawn_independent_streams(self):
        streams = spawn_rngs(7, 3)
        draws = [s.random(4) for s in streams]
        assert not np.allclose(draws[0], draws[1])
        # Reproducible.
        again = [s.random(4) for s in spawn_rngs(7, 3)]
        np.testing.assert_array_equal(draws[0], again[0])

    def test_spawn_count_validation(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)

    def test_spawn_zero(self):
        assert spawn_rngs(0, 0) == []

    def test_derive_seed(self):
        assert derive_seed(None, 1) is None
        assert derive_seed(5, 1) != derive_seed(5, 2)
        assert derive_seed(5, 1) == derive_seed(5, 1)


class TestTimer:
    def test_phase_accumulates(self):
        t = Timer()
        with t.phase("a"):
            time.sleep(0.01)
        with t.phase("a"):
            time.sleep(0.01)
        assert t.get("a") >= 0.02
        assert t.counts["a"] == 2

    def test_total_and_merge(self):
        t1, t2 = Timer(), Timer()
        t1.add("x", 1.0)
        t2.add("x", 2.0)
        t2.add("y", 3.0)
        t1.merge(t2)
        assert t1.get("x") == 3.0
        assert t1.total == 6.0

    def test_exception_still_recorded(self):
        t = Timer()
        with pytest.raises(RuntimeError):
            with t.phase("boom"):
                raise RuntimeError("x")
        assert t.get("boom") >= 0.0
        assert t.counts["boom"] == 1

    def test_missing_phase_zero(self):
        assert Timer().get("nope") == 0.0


class TestValidation:
    def test_check_positive(self):
        assert check_positive("x", 3) == 3
        with pytest.raises(ValueError):
            check_positive("x", 0)
        assert check_positive("x", 0, allow_zero=True) == 0
        with pytest.raises(ValueError):
            check_positive("x", -1, allow_zero=True)

    @pytest.mark.parametrize("allow_zero", [False, True])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     -float("inf")])
    def test_check_positive_rejects_non_finite(self, bad, allow_zero):
        """``nan <= 0`` is False, so a plain comparison lets NaN through."""
        with pytest.raises(ValueError, match="x"):
            check_positive("x", bad, allow_zero=allow_zero)

    def test_check_probability(self):
        assert check_probability("p", 0.0) == 0.0
        assert check_probability("p", 1.0) == 1.0
        with pytest.raises(ValueError):
            check_probability("p", 1.5)

    def test_check_fraction(self):
        assert check_fraction("f", 0.5) == 0.5
        for bad in (0.0, 1.0):
            with pytest.raises(ValueError):
                check_fraction("f", bad)

    def test_check_int_in_range(self):
        assert check_int_in_range("k", 3, 1, 5) == 3
        with pytest.raises(ValueError):
            check_int_in_range("k", 9, 1, 5)
        with pytest.raises(TypeError):
            check_int_in_range("k", 2.5, 1, 5)
        with pytest.raises(TypeError):
            check_int_in_range("k", True, 0, 5)
