"""Roofline-style timing model combining memory, compute, and scheduling."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.gpu.executor import schedule

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.device import GPUSpec
    from repro.gpu.stats import KernelStats


@dataclass(frozen=True)
class TimeBreakdown:
    """Per-component decomposition of one simulated kernel time."""

    memory_s: float
    compute_s: float
    launch_s: float
    imbalance: float
    total_s: float

    def scaled_to(self, new_total: float) -> "TimeBreakdown":
        """Rescale all components proportionally to a new total time."""
        if self.total_s <= 0:
            return replace(self, total_s=new_total)
        r = new_total / self.total_s
        return TimeBreakdown(
            memory_s=self.memory_s * r,
            compute_s=self.compute_s * r,
            launch_s=self.launch_s * r,
            imbalance=self.imbalance,
            total_s=new_total,
        )


#: Achievable fraction of peak global-memory bandwidth.
BANDWIDTH_EFFICIENCY = 0.75
#: Achievable fraction of peak FP32 throughput.
COMPUTE_EFFICIENCY = 0.60


def estimate(stats: "KernelStats", spec: "GPUSpec") -> TimeBreakdown:
    """Convert :class:`KernelStats` into a deterministic time estimate.

    ``time = max(memory_time, compute_makespan_time) + launch_overhead``

    * *memory_time* charges all global traffic (atomics amplified by the
      device's RMW penalty) against peak bandwidth scaled by
      :data:`BANDWIDTH_EFFICIENCY` — global memory is a device-wide
      shared resource, so it is insensitive to block placement;
    * *compute_makespan_time* schedules the per-block flop counts
      (``KernelStats.block_costs``, padding and per-row overheads included)
      onto the device's resident-block slots with a greedy dispatcher and
      divides the resulting makespan by one slot's throughput.  Load
      imbalance therefore extends the kernel exactly when a straggler block
      outlasts the streaming of memory — the physical mechanism behind the
      skewed-row pathology of row-split CSR kernels.
    """
    mem_bytes = stats.effective_memory_bytes(spec.atomic_penalty)
    bw = spec.mem_bandwidth_gbs * 1e9 * BANDWIDTH_EFFICIENCY * stats.bandwidth_efficiency
    memory_s = mem_bytes / bw

    effective = (
        spec.fp32_gflops
        * 1e9
        * COMPUTE_EFFICIENCY
        * stats.lane_utilization
        * stats.compute_efficiency
    )
    launch_s = stats.num_launches * spec.kernel_launch_us * 1e-6

    if not stats.block_costs.size:
        compute_s = stats.flops / effective
        body = max(memory_s, compute_s)
        return TimeBreakdown(
            memory_s=memory_s,
            compute_s=compute_s,
            launch_s=launch_s,
            imbalance=1.0,
            total_s=body + launch_s,
        )

    result = schedule(stats.block_costs, spec.block_slots, lpt=stats.lpt_dispatch)
    total_cost = float(stats.block_costs.sum())
    compute_s = total_cost / effective
    # Balanced phase: full-device roofline over the evenly distributed work.
    balanced_s = max(memory_s, compute_s)
    # Straggler tail: the excess of the worst slot runs after the device
    # drains, at single-slot rates for both compute and memory.
    excess = result.excess
    if excess > 0 and total_cost > 0:
        slot_rate = effective / spec.block_slots
        # The straggler's bytes scale with its real arithmetic, not with
        # per-row overhead terms folded into block costs.
        bytes_per_flop = mem_bytes / stats.flops if stats.flops > 0 else 0.0
        tail_mem = excess * bytes_per_flop / (spec.sm_bandwidth_gbs * 1e9)
        tail_s = max(excess / slot_rate, tail_mem)
    else:
        tail_s = 0.0
    return TimeBreakdown(
        memory_s=memory_s,
        compute_s=compute_s,
        launch_s=launch_s,
        imbalance=result.imbalance,
        total_s=balanced_s + tail_s + launch_s,
    )
