"""Tests for the thread-block scheduler."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gpu import executor
from repro.gpu.executor import schedule


class TestBlockScheduler:
    def test_empty(self):
        r = schedule(np.zeros(0), slots=8)
        assert r.makespan == 0.0 and r.imbalance == 1.0

    def test_fewer_blocks_than_slots(self):
        r = schedule(np.array([5.0, 3.0, 1.0]), slots=8)
        assert r.makespan == 5.0

    def test_uniform_blocks_balance_perfectly(self):
        costs = np.full(64, 2.0)
        r = schedule(costs, slots=8)
        assert r.makespan == pytest.approx(16.0)
        assert r.imbalance == pytest.approx(1.0)

    def test_single_giant_block_dominates(self):
        costs = np.concatenate([[1000.0], np.ones(63)])
        r = schedule(costs, slots=8)
        assert r.makespan >= 1000.0
        assert r.excess > 0

    def test_lpt_no_worse_than_natural_on_adversarial_order(self):
        rng = np.random.default_rng(3)
        costs = rng.exponential(1.0, size=500)
        costs[-1] = 200.0  # straggler arriving last
        nat = schedule(costs, slots=16, lpt=False)
        lpt = schedule(costs, slots=16, lpt=True)
        assert lpt.makespan <= nat.makespan + 1e-9

    def test_makespan_lower_bounds(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            costs = rng.exponential(1.0, size=300)
            r = schedule(costs, slots=10)
            assert r.makespan >= costs.max() - 1e-9
            assert r.makespan >= costs.sum() / 10 - 1e-9

    def test_approximate_path_close_to_exact(self, monkeypatch):
        rng = np.random.default_rng(11)
        costs = rng.exponential(1.0, size=20000)
        monkeypatch.setattr(executor, "EXACT_THRESHOLD", 50000)
        exact = schedule(costs, 640, lpt=True)
        monkeypatch.setattr(executor, "EXACT_THRESHOLD", 100)
        approx = schedule(costs, 640, lpt=True)
        assert approx.makespan == pytest.approx(exact.makespan, rel=0.1)

    @pytest.mark.parametrize(
        "costs, slots, makespan",
        [
            pytest.param([3.0, 1.0, 2.0], 1, 6.0, id="single_worker_is_sum"),
            pytest.param([1.0] * 4, 2, 2.0, id="balanced"),
            pytest.param(
                [10.0, 1.0, 1.0], 4, 10.0, id="dominant_task_is_critical_path"
            ),
        ],
    )
    def test_lpt_makespan(self, costs, slots, makespan):
        r = schedule(np.array(costs), slots, lpt=True)
        assert r.makespan == pytest.approx(makespan)

    def test_excess_property(self):
        r = schedule(np.array([10.0, 1.0, 1.0]), slots=2)
        assert r.excess == pytest.approx(r.makespan - r.mean_load)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(1, 300),
    slots=st.integers(1, 64),
)
def test_makespan_bounds_property(seed, n, slots):
    """Greedy makespan always within the classic (2 - 1/m) bound of optimal."""
    rng = np.random.default_rng(seed)
    costs = rng.exponential(1.0, size=n) + 0.01
    for lpt in (False, True):
        r = schedule(costs, slots, lpt=lpt)
        lower = max(costs.max(), costs.sum() / slots)
        assert r.makespan >= lower - 1e-9
        assert r.makespan <= lower * (2.0 - 1.0 / slots) + 1e-9
