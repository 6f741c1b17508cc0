"""GPU device specifications and the simulated-device facade."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.gpu import timing
from repro.gpu.stats import KernelStats, Measurement
from repro.obs import get_registry, get_tracer

#: Bytes per 32-bit word (indices and float32 values).
WORD_BYTES = 4


@dataclass(frozen=True)
class GPUSpec:
    """Static description of a GPU used by the timing model.

    Defaults approximate an NVIDIA V100-SXM2-16GB, the part used by the
    paper's evaluation (Section 7).  All rates are peak rates; the timing
    model applies efficiency factors supplied by each kernel's statistics.
    """

    name: str = "V100-SXM2-16GB"
    #: Number of streaming multiprocessors.
    num_sms: int = 80
    #: Core clock in GHz.
    clock_ghz: float = 1.53
    #: Peak global-memory bandwidth in GB/s (HBM2).
    mem_bandwidth_gbs: float = 900.0
    #: Memory bandwidth a single SM can sustain in GB/s (latency-limited);
    #: charged to straggler thread blocks running after the device drains.
    sm_bandwidth_gbs: float = 25.0
    #: Peak single-precision throughput in GFLOP/s.
    fp32_gflops: float = 15_700.0
    #: L2 cache capacity in bytes.
    l2_bytes: int = 6 * 1024 * 1024
    #: Device memory capacity in bytes; exceeding it raises a simulated OOM.
    dram_bytes: int = 16 * 1024**3
    #: SIMT warp width.
    warp_size: int = 32
    #: Resident thread blocks per SM (occupancy-limited slots).
    blocks_per_sm: int = 8
    #: Fixed cost of one kernel launch in microseconds (includes the host
    #: library call overhead around the launch itself).
    kernel_launch_us: float = 6.0
    #: Memory-transaction sector size in bytes (uncoalesced accesses pull a
    #: full sector per element).
    sector_bytes: int = 32
    #: Extra traffic multiplier charged per atomically-written byte, modeling
    #: the read-modify-write transaction (Volta-class float atomics to
    #: distinct addresses resolve in L2 without lane serialization).
    atomic_penalty: float = 1.8

    @property
    def block_slots(self) -> int:
        """Total concurrently resident thread-block slots on the device."""
        return self.num_sms * self.blocks_per_sm

    def with_overrides(self, **kwargs: object) -> "GPUSpec":
        """Return a copy of this spec with the given fields replaced."""
        return replace(self, **kwargs)


#: The default device of the paper's evaluation.
V100 = GPUSpec()

#: A newer-generation part for the cross-device transfer-learning study
#: (Section 8 notes LiteForm "requires model retraining for new
#: architectures"; ``repro.core.transfer`` implements the suggested fix).
A100 = GPUSpec(
    name="A100-SXM4-40GB",
    num_sms=108,
    clock_ghz=1.41,
    mem_bandwidth_gbs=1555.0,
    sm_bandwidth_gbs=40.0,
    fp32_gflops=19_500.0,
    l2_bytes=40 * 1024 * 1024,
    dram_bytes=40 * 1024**3,
    blocks_per_sm=8,
    kernel_launch_us=5.0,
    atomic_penalty=1.5,
)


class SimulatedOOMError(MemoryError):
    """Raised when a kernel's working set exceeds the device memory.

    Mirrors the ``OOM`` annotations of Figure 6 (Triton's BSR representation
    of the large graphs does not fit in 16 GB).

    ``required_bytes > capacity_bytes`` marks a *structural* OOM — the
    working set can never fit this device, so retrying the same plan is
    futile and the only recovery is a smaller-footprint format.  Fault
    injection (:mod:`repro.gpu.faults`) raises the same error with
    ``required_bytes <= capacity_bytes`` to model *transient* memory
    pressure (fragmentation, a neighbor's allocation) that a retry can
    clear; :class:`repro.serve.server.SpMMServer` keys its recovery on
    :attr:`is_structural`.
    """

    def __init__(self, required_bytes: int, capacity_bytes: int):
        self.required_bytes = int(required_bytes)
        self.capacity_bytes = int(capacity_bytes)
        super().__init__(
            f"simulated device OOM: kernel requires {required_bytes / 2**30:.2f} GiB, "
            f"device has {capacity_bytes / 2**30:.2f} GiB"
        )

    @property
    def is_structural(self) -> bool:
        """True when the working set can never fit on this device."""
        return self.required_bytes > self.capacity_bytes


class DeviceLostError(RuntimeError):
    """Raised when a simulated device has failed permanently.

    Models the CUDA ``cudaErrorDevicesUnavailable`` / Xid-error class of
    failures: every launch on the device fails until it is replaced.  The
    serving layer's circuit breaker (:mod:`repro.serve.resilience`) ejects
    the device from placement and probes it after a cooldown.
    """

    def __init__(self, device_name: str = "device"):
        self.device_name = device_name
        super().__init__(f"simulated device lost: {device_name}")


@dataclass
class SimulatedDevice:
    """Facade combining a :class:`GPUSpec` with the timing model
    (:func:`repro.gpu.timing.estimate`).

    Kernels hand their :class:`KernelStats` to :meth:`measure`; the device
    checks the memory footprint and returns a :class:`Measurement` with the
    estimated execution time and utilization figures.
    """

    spec: GPUSpec = field(default_factory=lambda: V100)

    def measure(self, stats: KernelStats) -> Measurement:
        """Estimate the execution of one kernel launch (or fused launches).

        When a tracer is installed (:func:`repro.obs.get_tracer`), each
        call emits a ``kernel_launch`` span carrying the derived
        :class:`~repro.gpu.profiler.KernelProfile` fields (bound type,
        achieved bandwidth fraction, block imbalance) as attributes.

        The time estimate is memoized on the immutable ``stats`` record per
        spec, so re-measuring a cached plan's stats skips the block
        scheduler; the footprint check, the span and the histogram still
        run on every call.
        """
        if stats.footprint_bytes > self.spec.dram_bytes:
            raise SimulatedOOMError(stats.footprint_bytes, self.spec.dram_bytes)
        tracer = get_tracer()
        with tracer.span("kernel_launch", kernel=stats.label or "unlabeled") as span:
            # Keyed by identity: the entry holds the spec, so its id
            # cannot be reused while it lives.
            key = id(self.spec)
            memo = stats.timings.get(key)
            if memo is None:
                memo = (self.spec, timing.estimate(stats, self.spec))
                stats.timings[key] = memo
            breakdown = memo[1]
            total_s = breakdown.total_s
            flops = float(stats.flops)
            peak = self.spec.fp32_gflops * 1e9
            throughput = 0.0 if total_s <= 0.0 else min(1.0, flops / total_s / peak)
            measurement = Measurement(
                time_s=total_s,
                breakdown=breakdown,
                stats=stats,
                compute_throughput=throughput,
            )
            if tracer.enabled and total_s > 0:
                from repro.gpu.profiler import profile  # local: avoids cycle

                p = profile(measurement, self.spec)
                span.set(
                    sim_ms=measurement.time_ms,
                    num_launches=stats.num_launches,
                    bound=p.bound,
                    bandwidth_fraction=round(p.bandwidth_fraction, 4),
                    compute_fraction=round(p.compute_fraction, 4),
                    imbalance=round(p.imbalance, 3),
                    launch_fraction=round(p.launch_fraction, 4),
                )
                # Exemplar-bearing histogram: a slow launch's bucket
                # points back at the trace that produced it.
                get_registry().histogram(
                    "gpu_kernel_sim_ms",
                    "Simulated kernel time per traced launch (ms)",
                ).observe(measurement.time_ms, exemplar=span.trace_id)
        return measurement

    def measure_many(self, stats_list: list[KernelStats]) -> Measurement:
        """Measure a sequence of dependent kernel launches (summed time)."""
        if not stats_list:
            raise ValueError("measure_many requires at least one KernelStats")
        measurements = [self.measure(s) for s in stats_list]
        total = float(np.sum([m.time_s for m in measurements]))
        combined = KernelStats.merge(stats_list)
        breakdown = measurements[0].breakdown.scaled_to(total)
        flops = float(combined.flops)
        peak = self.spec.fp32_gflops * 1e9
        throughput = 0.0 if total <= 0.0 else min(1.0, flops / total / peak)
        return Measurement(
            time_s=total,
            breakdown=breakdown,
            stats=combined,
            compute_throughput=throughput,
        )
