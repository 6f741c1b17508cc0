"""Structural kernel statistics and measurement records."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.gpu.timing import TimeBreakdown


@dataclass(frozen=True)
class KernelStats:
    """Structural description of the work one GPU kernel launch performs.

    Every field is a *count* derived from the sparse format and the operand
    shapes, never from wall-clock timing, so measurements are deterministic.
    Records are immutable (``block_costs`` is a read-only view), which is
    what lets kernels memoize them per format and devices memoize their
    timing per record; derive variants with :func:`dataclasses.replace`.

    Attributes
    ----------
    coalesced_load_bytes:
        Global-memory bytes read through fully coalesced transactions
        (e.g. contiguous value/index arrays, dense-matrix row segments).
    scattered_load_bytes:
        Bytes read through scattered (gather) accesses *after* sector
        expansion, e.g. random rows of ``B`` indexed by column ids.
    coalesced_store_bytes:
        Bytes written with plain coalesced stores.
    atomic_store_bytes:
        Bytes written with atomic read-modify-write operations; the device
        charges :attr:`repro.gpu.device.GPUSpec.atomic_penalty` per byte.
    flops:
        Floating-point operations (one fused multiply-add counts as 2).
    block_costs:
        Per-thread-block work estimate in arbitrary but consistent units
        (typically "non-zeros processed, padding included").  Drives the
        load-imbalance factor.
    threads_per_block:
        Threads per block; used for a warp-granularity utilization factor.
    lane_utilization:
        Fraction of SIMT lanes doing useful work (1.0 = no divergence).
    num_launches:
        Number of kernel launches this statistic represents (each pays the
        fixed launch overhead); composable formats may emit one launch per
        bucket unless horizontally fused.
    footprint_bytes:
        Device-resident bytes of the operands (format arrays + B + C); used
        for the simulated-OOM check.
    """

    coalesced_load_bytes: float = 0.0
    scattered_load_bytes: float = 0.0
    coalesced_store_bytes: float = 0.0
    atomic_store_bytes: float = 0.0
    flops: float = 0.0
    block_costs: np.ndarray = field(default_factory=lambda: np.zeros(0))
    threads_per_block: int = 128
    lane_utilization: float = 1.0
    num_launches: int = 1
    footprint_bytes: float = 0.0
    label: str = ""
    #: Kernel-specific multiplier on achievable FP32 throughput (dense-tile
    #: kernels using tensor cores exceed the generic scalar efficiency).
    compute_efficiency: float = 1.0
    #: Kernel-specific multiplier on achieved DRAM bandwidth: regular
    #: streaming kernels (ELL-family) sustain a higher fraction of peak than
    #: latency-bound gather kernels (generic CSR, TACO codegen).
    bandwidth_efficiency: float = 1.0
    #: Whether the kernel's blocks are dispatched longest-first (sorted
    #: workloads, e.g. Sputnik's row swizzle) rather than in natural order.
    lpt_dispatch: bool = False
    #: Device-side memo of this record's timing, filled by
    #: :meth:`repro.gpu.device.SimulatedDevice.measure`.
    timings: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        costs = np.asarray(self.block_costs, dtype=np.float64).view()
        costs.flags.writeable = False
        object.__setattr__(self, "block_costs", costs)
        if self.lane_utilization <= 0.0 or self.lane_utilization > 1.0:
            raise ValueError(
                f"lane_utilization must be in (0, 1], got {self.lane_utilization}"
            )

    @property
    def total_load_bytes(self) -> float:
        return self.coalesced_load_bytes + self.scattered_load_bytes

    @property
    def total_store_bytes(self) -> float:
        return self.coalesced_store_bytes + self.atomic_store_bytes

    @property
    def num_blocks(self) -> int:
        return int(self.block_costs.size)

    def effective_memory_bytes(self, atomic_penalty: float) -> float:
        """Total charged memory traffic including the atomic penalty."""
        return (
            self.total_load_bytes
            + self.coalesced_store_bytes
            + self.atomic_store_bytes * atomic_penalty
        )

    @staticmethod
    def merge(stats: Sequence["KernelStats"] | Iterable["KernelStats"]) -> "KernelStats":
        """Aggregate several launches into one record (sums counters)."""
        stats = list(stats)
        if not stats:
            raise ValueError("cannot merge an empty sequence of KernelStats")
        costs = (
            np.concatenate([s.block_costs for s in stats])
            if any(s.block_costs.size for s in stats)
            else np.zeros(0)
        )
        total_work = sum(float(np.sum(s.block_costs)) or s.flops for s in stats)
        if total_work > 0:
            lane = (
                sum(
                    s.lane_utilization * (float(np.sum(s.block_costs)) or s.flops)
                    for s in stats
                )
                / total_work
            )
        else:
            lane = 1.0
        if total_work > 0:
            ceff = (
                sum(
                    s.compute_efficiency * (float(np.sum(s.block_costs)) or s.flops)
                    for s in stats
                )
                / total_work
            )
        else:
            ceff = 1.0
        total_bytes = sum(
            s.total_load_bytes + s.total_store_bytes for s in stats
        )
        if total_bytes > 0:
            beff = (
                sum(
                    s.bandwidth_efficiency
                    * (s.total_load_bytes + s.total_store_bytes)
                    for s in stats
                )
                / total_bytes
            )
        else:
            beff = 1.0
        return KernelStats(
            bandwidth_efficiency=float(beff),
            coalesced_load_bytes=sum(s.coalesced_load_bytes for s in stats),
            scattered_load_bytes=sum(s.scattered_load_bytes for s in stats),
            coalesced_store_bytes=sum(s.coalesced_store_bytes for s in stats),
            atomic_store_bytes=sum(s.atomic_store_bytes for s in stats),
            flops=sum(s.flops for s in stats),
            block_costs=costs,
            threads_per_block=stats[0].threads_per_block,
            lane_utilization=float(min(1.0, max(lane, 1e-9))),
            num_launches=sum(s.num_launches for s in stats),
            footprint_bytes=max(s.footprint_bytes for s in stats),
            label="+".join(s.label for s in stats if s.label),
            compute_efficiency=float(ceff),
            lpt_dispatch=all(s.lpt_dispatch for s in stats),
        )


#: Fields a :class:`PackedStats` keeps as they are (the timing memo included).
_PACKED_FIELDS = tuple(f.name for f in fields(KernelStats) if f.name != "block_costs")


class PackedStats:
    """A :class:`KernelStats` kept at rest in compact form.

    Block costs take few distinct values (one per bucket width, or per
    row-length class), so each block's cost is stored as a one- or
    two-byte code into the sorted distinct values instead of an
    eight-byte float (or as is, when codes would not be smaller).
    :meth:`unpack` rebuilds a record equal to the packed one, field for
    field, that shares its timing memo.
    """

    __slots__ = ("_fields", "_values", "_codes")

    def __init__(self, stats: KernelStats):
        costs = stats.block_costs
        values, codes = np.unique(costs, return_inverse=True)
        codes = codes.astype(np.min_scalar_type(max(values.size - 1, 0)))
        if values.nbytes + codes.nbytes < costs.nbytes:
            self._values, self._codes = values, codes
        else:
            self._values, self._codes = costs, None
        self._fields = tuple(getattr(stats, name) for name in _PACKED_FIELDS)

    def unpack(self) -> KernelStats:
        costs = self._values
        if self._codes is not None:
            costs = costs[self._codes]
            costs.flags.writeable = False
        # Fields are already validated; fill the frozen record directly.
        stats = object.__new__(KernelStats)
        vars(stats).update(zip(_PACKED_FIELDS, self._fields), block_costs=costs)
        return stats

    @property
    def nbytes(self) -> int:
        """Array bytes held at rest."""
        codes = 0 if self._codes is None else self._codes.nbytes
        return self._values.nbytes + codes


@dataclass
class Measurement:
    """Result of simulating one kernel (or fused kernel group).

    ``compute_throughput`` is the fraction of peak FP32 throughput achieved,
    mirroring the "GPU compute throughput (%)" metric of Figure 11.
    """

    time_s: float
    breakdown: "TimeBreakdown"
    stats: KernelStats
    compute_throughput: float

    @property
    def time_ms(self) -> float:
        return self.time_s * 1e3

    @property
    def time_us(self) -> float:
        return self.time_s * 1e6
