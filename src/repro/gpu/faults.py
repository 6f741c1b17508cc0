"""Fault injection for the simulated device pool.

Real GPU serving fleets see three broad failure classes: *transient*
allocation failures (memory pressure from co-tenants, fragmentation),
*permanent* device loss (Xid errors, falling off the bus), and *latency
spikes* (thermal throttling, ECC scrubbing, a noisy neighbor).
:class:`FaultyDevice` wraps the analytical simulator with a seeded RNG
policy injecting all three, so the serving layer's recovery machinery
(:mod:`repro.serve.resilience`) can be exercised deterministically — the
same :class:`FaultPolicy` seed always produces the same fault sequence.

Injected OOMs carry ``required_bytes <= capacity_bytes`` so callers can
tell them apart from *structural* OOMs (working set genuinely larger than
the device), which the unwrapped :class:`SimulatedDevice` raises with
``required_bytes > capacity_bytes``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.gpu.device import DeviceLostError, SimulatedDevice, SimulatedOOMError
from repro.gpu.stats import KernelStats, Measurement

#: Multiplier applied to a spiked launch's simulated time.
LATENCY_SPIKE_FACTOR = 8.0


@dataclass(frozen=True)
class FaultPolicy:
    """Per-launch fault probabilities drawn from one seeded RNG stream.

    Rates apply independently per kernel launch (one :meth:`measure`
    call).  ``death_rate`` is the probability that a launch kills the
    device permanently; once dead, every later launch raises
    :class:`DeviceLostError` regardless of the draws.
    """

    #: Probability a launch fails with a transient (retryable) OOM.
    transient_oom_rate: float = 0.0
    #: Probability a launch permanently kills the device.
    death_rate: float = 0.0
    #: Probability a launch's simulated time is multiplied by
    #: :data:`LATENCY_SPIKE_FACTOR`.
    latency_spike_rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("transient_oom_rate", "death_rate", "latency_spike_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")


@dataclass
class FaultyDevice(SimulatedDevice):
    """A :class:`SimulatedDevice` that injects faults per kernel launch.

    Drop-in for anywhere a ``SimulatedDevice`` is accepted (the server's
    device pool, kernels' ``run``/``measure``).  ``measure_many`` inherits
    the base implementation, so multi-launch sequences draw faults per
    launch.  Counters (:attr:`injected_ooms`, :attr:`injected_spikes`,
    :attr:`launches`) expose what was actually injected.
    """

    faults: FaultPolicy = field(default_factory=FaultPolicy)

    def __post_init__(self) -> None:
        self._rng = np.random.default_rng(self.faults.seed)
        self._dead = False
        self.launches = 0
        self.injected_ooms = 0
        self.injected_spikes = 0

    @property
    def dead(self) -> bool:
        """True once a death draw has permanently killed the device."""
        return self._dead

    def revive(self) -> None:
        """Bring a dead device back (models a fleet swapping the part)."""
        self._dead = False

    def measure(self, stats: KernelStats) -> Measurement:
        if self._dead:
            raise DeviceLostError(self.spec.name)
        self.launches += 1
        p = self.faults
        draw = float(self._rng.random())
        if draw < p.death_rate:
            self._dead = True
            raise DeviceLostError(self.spec.name)
        if draw < p.death_rate + p.transient_oom_rate:
            self.injected_ooms += 1
            # required <= capacity: transient pressure, not a structural OOM
            # (a genuinely oversized working set is raised by the base class
            # below, before any spike is applied).
            raise SimulatedOOMError(
                min(int(stats.footprint_bytes), self.spec.dram_bytes),
                self.spec.dram_bytes,
            )
        measurement = super().measure(stats)
        if float(self._rng.random()) < p.latency_spike_rate:
            self.injected_spikes += 1
            f = LATENCY_SPIKE_FACTOR
            measurement = Measurement(
                time_s=measurement.time_s * f,
                breakdown=measurement.breakdown.scaled_to(measurement.time_s * f),
                stats=measurement.stats,
                compute_throughput=measurement.compute_throughput / f,
            )
        return measurement
