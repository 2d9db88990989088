"""Tests for walk-effectiveness measurement: InCoM vs full-path.

The central equivalence claim of the paper (§3.1): incremental O(1)
measurement produces *identical* values to full-path recomputation.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.message import incremental_state_to_message

from oracles.walks import (
    FullPathWalkMeasure,
    IncrementalWalkMeasure,
    make_measure,
)

walks = st.lists(st.integers(min_value=0, max_value=12),
                 min_size=1, max_size=50)


class TestEquivalence:
    @given(walks)
    @settings(max_examples=200, deadline=None)
    def test_entropy_identical(self, walk):
        inc = IncrementalWalkMeasure()
        full = FullPathWalkMeasure()
        for node in walk:
            inc.observe(node)
            full.observe(node)
            assert inc.entropy == pytest.approx(full.entropy, abs=1e-9)

    @given(walks)
    @settings(max_examples=200, deadline=None)
    def test_r_squared_identical(self, walk):
        inc = IncrementalWalkMeasure()
        full = FullPathWalkMeasure()
        for node in walk:
            inc.observe(node)
            full.observe(node)
        assert inc.r_squared == pytest.approx(full.r_squared,
                                              rel=1e-6, abs=1e-6)

    @given(walks, st.floats(min_value=0.5, max_value=0.999))
    @settings(max_examples=200, deadline=None)
    def test_termination_decision_identical(self, walk, mu):
        """Both measures must make the same stop/continue decision
        (away from the exact R² == mu boundary, where the last float ulp
        legitimately differs between the two computations)."""
        inc = IncrementalWalkMeasure()
        full = FullPathWalkMeasure()
        for node in walk:
            inc.observe(node)
            full.observe(node)
            if abs(full.r_squared - mu) < 1e-9:
                continue
            assert inc.should_terminate(mu, 3) == full.should_terminate(mu, 3)


class TestCosts:
    """The complexity separation the paper proves (O(1) vs O(L))."""

    def test_incremental_step_cost_constant(self):
        m = IncrementalWalkMeasure()
        for node in range(100):
            m.observe(node)
            assert m.step_cost() == 1.0

    def test_fullpath_step_cost_linear(self):
        m = FullPathWalkMeasure()
        for node in range(50):
            m.observe(node)
        assert m.step_cost() == 50.0

    def test_incremental_message_constant_80(self):
        m = IncrementalWalkMeasure()
        for node in range(64):
            m.observe(node)
            assert m.message_bytes() == 80

    def test_fullpath_message_grows(self):
        m = FullPathWalkMeasure()
        sizes = []
        for node in range(10):
            m.observe(node)
            sizes.append(m.message_bytes())
        assert sizes == [24 + 8 * (i + 1) for i in range(10)]


class TestMeasureProtocol:
    def test_factory(self):
        assert isinstance(make_measure("incom"), IncrementalWalkMeasure)
        assert isinstance(make_measure("fullpath"), FullPathWalkMeasure)
        with pytest.raises(KeyError):
            make_measure("bogus")

    def test_min_length_respected(self):
        m = IncrementalWalkMeasure()
        for node in [1, 2, 3]:
            m.observe(node)
        # Even with a trivially failing mu, min_length blocks termination.
        assert not m.should_terminate(mu=1.0, min_length=10)

    def test_message_packing(self):
        m = IncrementalWalkMeasure()
        for node in [1, 2, 2, 3]:
            m.observe(node)
        msg = incremental_state_to_message(
            walk_id=7, steps=3, node_id=3,
            entropy_state=m._entropy.carried_state,
            entropy_value=m.entropy,
            moments=m._corr.carried_state,
        )
        assert msg.byte_size() == 80
        assert msg.length == 4
        assert msg.entropy_h == pytest.approx(m.entropy)
