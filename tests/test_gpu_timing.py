"""Tests for the roofline timing model and simulated device."""

import numpy as np
import pytest

from repro.gpu import KernelStats, SimulatedDevice, V100
from repro.gpu.device import SimulatedOOMError
from repro.gpu.timing import estimate


def make_stats(**overrides) -> KernelStats:
    base = dict(
        coalesced_load_bytes=1e6,
        coalesced_store_bytes=1e5,
        flops=1e7,
        block_costs=np.full(1000, 1e4),
        footprint_bytes=1e6,
    )
    base.update(overrides)
    return KernelStats(**base)


class TestTimingModel:
    def setup_method(self):
        self.spec = V100

    def test_memory_bound_kernel(self):
        # Huge traffic, trivial balanced compute: time tracks bytes/bandwidth
        # (uniform blocks over all slots leave no straggler tail).
        stats = make_stats(
            coalesced_load_bytes=1e9, flops=1e6, block_costs=np.full(6400, 1e6 / 6400)
        )
        bd = estimate(stats, self.spec)
        assert bd.memory_s > bd.compute_s
        assert bd.total_s == pytest.approx(bd.memory_s + bd.launch_s, rel=1e-6)

    def test_compute_bound_kernel(self):
        stats = make_stats(
            coalesced_load_bytes=1e3, flops=1e12, block_costs=np.full(6400, 1e12 / 6400)
        )
        bd = estimate(stats, self.spec)
        assert bd.compute_s > bd.memory_s

    def test_more_bytes_more_time(self):
        t1 = estimate(make_stats(coalesced_load_bytes=1e8), self.spec).total_s
        t2 = estimate(make_stats(coalesced_load_bytes=2e8), self.spec).total_s
        assert t2 > t1

    def test_atomic_penalty_charged(self):
        plain = make_stats(
            coalesced_load_bytes=0.0, coalesced_store_bytes=1e8, atomic_store_bytes=0.0
        )
        atomic = make_stats(
            coalesced_load_bytes=0.0, coalesced_store_bytes=0.0, atomic_store_bytes=1e8
        )
        t_plain = estimate(plain, self.spec).memory_s
        t_atomic = estimate(atomic, self.spec).memory_s
        assert t_atomic == pytest.approx(t_plain * self.spec.atomic_penalty, rel=1e-6)

    def test_launch_overhead_per_launch(self):
        one = estimate(make_stats(num_launches=1), self.spec)
        ten = estimate(make_stats(num_launches=10), self.spec)
        extra = (ten.total_s - one.total_s)
        assert extra == pytest.approx(9 * self.spec.kernel_launch_us * 1e-6, rel=1e-6)

    def test_straggler_tail_extends_time(self):
        balanced = make_stats(block_costs=np.full(1000, 1e4))
        skewed_costs = np.full(1000, 1e4)
        skewed_costs[0] = 1e7
        skewed = make_stats(block_costs=skewed_costs, flops=1e7 + 1e7)
        t_b = estimate(balanced, self.spec).total_s
        t_s = estimate(skewed, self.spec).total_s
        assert t_s > t_b

    def test_bandwidth_efficiency_scales_memory(self):
        slow = make_stats(bandwidth_efficiency=0.5, coalesced_load_bytes=1e9)
        fast = make_stats(bandwidth_efficiency=1.0, coalesced_load_bytes=1e9)
        assert estimate(slow, self.spec).memory_s == pytest.approx(
            2 * estimate(fast, self.spec).memory_s
        )


class TestKernelStats:
    def test_lane_utilization_validation(self):
        with pytest.raises(ValueError):
            KernelStats(lane_utilization=0.0)
        with pytest.raises(ValueError):
            KernelStats(lane_utilization=1.5)

    def test_merge_sums_counters(self):
        a = make_stats(coalesced_load_bytes=1.0, flops=10.0, num_launches=1)
        b = make_stats(coalesced_load_bytes=2.0, flops=20.0, num_launches=2)
        m = KernelStats.merge([a, b])
        assert m.coalesced_load_bytes == 3.0
        assert m.flops == 30.0
        assert m.num_launches == 3
        assert m.num_blocks == a.num_blocks + b.num_blocks

    def test_merge_empty_rejected(self):
        with pytest.raises(ValueError):
            KernelStats.merge([])

    def test_merge_weights_efficiencies(self):
        a = make_stats(bandwidth_efficiency=1.0, coalesced_load_bytes=1e6, coalesced_store_bytes=0)
        b = make_stats(bandwidth_efficiency=0.5, coalesced_load_bytes=3e6, coalesced_store_bytes=0)
        m = KernelStats.merge([a, b])
        assert 0.5 < m.bandwidth_efficiency < 1.0
        # byte-weighted toward b
        assert m.bandwidth_efficiency == pytest.approx((1.0 * 1e6 + 0.5 * 3e6) / 4e6)

    def test_effective_memory_bytes(self):
        s = make_stats(
            coalesced_load_bytes=10.0,
            scattered_load_bytes=5.0,
            coalesced_store_bytes=3.0,
            atomic_store_bytes=2.0,
        )
        assert s.effective_memory_bytes(atomic_penalty=3.0) == 10 + 5 + 3 + 6


class TestSimulatedDevice:
    def test_oom_raised(self):
        dev = SimulatedDevice()
        huge = make_stats(footprint_bytes=float(dev.spec.dram_bytes) * 2)
        with pytest.raises(SimulatedOOMError):
            dev.measure(huge)

    def test_throughput_bounded(self):
        dev = SimulatedDevice()
        m = dev.measure(make_stats())
        assert 0.0 <= m.compute_throughput <= 1.0

    def test_measure_many_sums(self):
        dev = SimulatedDevice()
        s = make_stats()
        one = dev.measure(s).time_s
        both = dev.measure_many([s, s]).time_s
        assert both == pytest.approx(2 * one, rel=1e-9)

    def test_spec_overrides(self):
        fast = V100.with_overrides(mem_bandwidth_gbs=1800.0)
        assert fast.mem_bandwidth_gbs == 1800.0
        assert V100.mem_bandwidth_gbs == 900.0  # frozen original untouched

    def test_time_units(self):
        dev = SimulatedDevice()
        m = dev.measure(make_stats())
        assert m.time_ms == pytest.approx(m.time_s * 1e3)
        assert m.time_us == pytest.approx(m.time_s * 1e6)

    def test_custom_spec_device_is_slower_with_less_bandwidth(self):
        stats = make_stats(coalesced_load_bytes=1e9)
        fast = SimulatedDevice(spec=V100)
        slow = SimulatedDevice(spec=V100.with_overrides(mem_bandwidth_gbs=90.0))
        assert slow.measure(stats).time_s > fast.measure(stats).time_s
