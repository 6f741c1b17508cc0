"""Fault injection: seeded determinism, OOM classes, death, spikes."""

import numpy as np
import pytest

from repro.gpu import (
    DeviceLostError,
    FaultPolicy,
    FaultyDevice,
    GPUSpec,
    KernelStats,
    SimulatedDevice,
    SimulatedOOMError,
)
from repro.gpu.faults import LATENCY_SPIKE_FACTOR


def _stats(footprint=1 << 20):
    return KernelStats(
        coalesced_load_bytes=1e6,
        coalesced_store_bytes=1e5,
        flops=1e6,
        block_costs=np.full(64, 100.0),
        footprint_bytes=footprint,
        label="test",
    )


def _fault_trace(device, calls=200):
    """Outcome letter per launch: ok / transient oom / lost / spike."""
    out = []
    for _ in range(calls):
        try:
            before = device.injected_spikes
            device.measure(_stats())
            out.append("s" if device.injected_spikes > before else ".")
        except SimulatedOOMError:
            out.append("o")
        except DeviceLostError:
            out.append("x")
    return "".join(out)


class TestFaultPolicy:
    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            FaultPolicy(transient_oom_rate=1.5)
        with pytest.raises(ValueError):
            FaultPolicy(death_rate=-0.1)

    def test_default_policy_injects_nothing(self):
        device = FaultyDevice()
        clean = SimulatedDevice()
        m = device.measure(_stats())
        assert m.time_s == pytest.approx(clean.measure(_stats()).time_s)
        assert device.injected_ooms == 0 and device.injected_spikes == 0


class TestDeterminism:
    def test_same_seed_same_fault_sequence(self):
        policy = FaultPolicy(
            transient_oom_rate=0.2, latency_spike_rate=0.1, death_rate=0.002, seed=42
        )
        a = _fault_trace(FaultyDevice(faults=policy))
        b = _fault_trace(FaultyDevice(faults=policy))
        assert a == b
        assert "o" in a  # the rate actually injects at 200 draws

    def test_different_seed_different_sequence(self):
        def mk(s):
            return FaultyDevice(faults=FaultPolicy(transient_oom_rate=0.3, seed=s))

        assert _fault_trace(mk(1)) != _fault_trace(mk(2))


class TestTransientOOM:
    def test_injected_oom_is_not_structural(self):
        device = FaultyDevice(faults=FaultPolicy(transient_oom_rate=1.0))
        with pytest.raises(SimulatedOOMError) as exc:
            device.measure(_stats())
        assert not exc.value.is_structural
        assert device.injected_ooms == 1

    def test_structural_oom_still_raised_and_classified(self):
        device = FaultyDevice()  # no injection at all
        too_big = _stats(footprint=device.spec.dram_bytes + 1)
        with pytest.raises(SimulatedOOMError) as exc:
            device.measure(too_big)
        assert exc.value.is_structural
        assert exc.value.required_bytes > exc.value.capacity_bytes

    def test_measure_many_draws_per_launch(self):
        device = FaultyDevice(faults=FaultPolicy(transient_oom_rate=1.0))
        with pytest.raises(SimulatedOOMError):
            device.measure_many([_stats(), _stats()])


class TestDeviceDeath:
    def test_death_is_permanent_until_revived(self):
        device = FaultyDevice(faults=FaultPolicy(death_rate=1.0))
        with pytest.raises(DeviceLostError):
            device.measure(_stats())
        assert device.dead
        # dead stays dead without further draws
        with pytest.raises(DeviceLostError):
            device.measure(_stats())
        device.revive()
        assert not device.dead

    def test_error_carries_device_name(self):
        device = FaultyDevice(
            spec=GPUSpec(name="test-part"), faults=FaultPolicy(death_rate=1.0)
        )
        with pytest.raises(DeviceLostError, match="test-part"):
            device.measure(_stats())


class TestLatencySpikes:
    def test_spike_scales_time_by_factor(self):
        clean = SimulatedDevice().measure(_stats())
        spiky = FaultyDevice(
            faults=FaultPolicy(latency_spike_rate=1.0)
        ).measure(_stats())
        assert spiky.time_s == pytest.approx(clean.time_s * LATENCY_SPIKE_FACTOR)
        assert spiky.breakdown.total_s == pytest.approx(clean.time_s * LATENCY_SPIKE_FACTOR)

    def test_spike_preserves_stats(self):
        m = FaultyDevice(
            faults=FaultPolicy(latency_spike_rate=1.0)
        ).measure(_stats())
        assert m.stats.label == "test"
