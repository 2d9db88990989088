"""Tests for learning-rate schedules."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.embedding import (
    SCHEDULES,
    ConstantSchedule,
    CosineSchedule,
    DistributedTrainer,
    InverseSqrtSchedule,
    LinearDecaySchedule,
    TrainConfig,
    make_schedule,
)
from repro.runtime.cluster import Cluster
from repro.walks import Corpus


class TestSchedules:
    def test_linear_matches_word2vec_formula(self):
        sched = LinearDecaySchedule(lr=0.025, min_lr=1e-4)
        for progress in (0.0, 0.1, 0.5, 0.9, 1.0):
            expected = max(1e-4, 0.025 * (1.0 - progress))
            assert sched(progress) == pytest.approx(expected)

    def test_linear_floors_at_min(self):
        sched = LinearDecaySchedule(lr=0.01, min_lr=0.005)
        assert sched(1.0) == pytest.approx(0.005)

    def test_constant(self):
        sched = ConstantSchedule(lr=0.02)
        assert sched(0.0) == sched(0.5) == sched(1.0) == 0.02

    def test_inverse_sqrt_endpoints(self):
        sched = InverseSqrtSchedule(lr=0.05, min_lr=0.0, decay=24.0)
        assert sched(0.0) == pytest.approx(0.05)
        assert sched(1.0) == pytest.approx(0.05 / 5.0)

    def test_cosine_endpoints(self):
        sched = CosineSchedule(lr=0.04, min_lr=0.004)
        assert sched(0.0) == pytest.approx(0.04)
        assert sched(1.0) == pytest.approx(0.004)
        assert sched(0.5) == pytest.approx((0.04 + 0.004) / 2)

    def test_factory(self):
        for name in SCHEDULES:
            sched = make_schedule(name, lr=0.025)
            assert sched(0.0) > 0

    def test_factory_unknown(self):
        with pytest.raises(KeyError, match="unknown schedule"):
            make_schedule("exponential", lr=0.025)

    def test_bad_params(self):
        with pytest.raises(ValueError):
            LinearDecaySchedule(lr=0.0)
        with pytest.raises(ValueError):
            LinearDecaySchedule(lr=0.01, min_lr=0.02)
        with pytest.raises(ValueError):
            CosineSchedule(lr=0.01, min_lr=0.02)
        with pytest.raises(ValueError):
            InverseSqrtSchedule(lr=0.01, decay=0.0)

    @settings(max_examples=50, deadline=None)
    @given(
        name=st.sampled_from(sorted(SCHEDULES)),
        lr=st.floats(min_value=1e-4, max_value=1.0),
        p1=st.floats(min_value=0.0, max_value=1.0),
        p2=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_property_monotone_nonincreasing(self, name, lr, p1, p2):
        """Every schedule is non-increasing in progress and stays positive."""
        sched = make_schedule(name, lr=lr, min_lr=0.0)
        lo, hi = min(p1, p2), max(p1, p2)
        assert sched(lo) >= sched(hi) >= 0.0
        assert sched(0.0) <= lr * (1.0 + 1e-9)

    def test_trainconfig_validates_schedule(self):
        with pytest.raises(ValueError, match="lr_schedule"):
            TrainConfig(lr_schedule="nope")

    def test_trainer_accepts_schedules(self, small_graph):
        corpus = Corpus(small_graph.num_nodes)
        rng = np.random.default_rng(0)
        for _ in range(20):
            start = int(rng.integers(0, small_graph.num_nodes))
            walk = [start]
            for _ in range(9):
                nbrs = small_graph.neighbors(walk[-1])
                walk.append(int(nbrs[rng.integers(0, nbrs.size)]))
            corpus.add_walk(walk)
        cluster = Cluster(2, np.arange(small_graph.num_nodes) % 2, seed=0)
        for name in ("linear", "constant", "cosine"):
            cfg = TrainConfig(dim=8, epochs=1, lr_schedule=name, seed=1)
            result = DistributedTrainer(corpus, cluster, cfg).train()
            assert result.embeddings.shape == (small_graph.num_nodes, 8)
            assert np.isfinite(result.embeddings).all()

