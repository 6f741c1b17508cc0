"""Analytical GPU performance-model simulator.

This package substitutes for the NVIDIA V100 testbed of the paper.  SpMM
kernels in :mod:`repro.kernels` compute their numeric result with vectorized
NumPy and emit a :class:`~repro.gpu.stats.KernelStats` describing the
*structural* work the corresponding CUDA kernel would perform: bytes moved
to/from global memory (split by coalesced / scattered / atomic traffic),
floating-point operations, and the per-thread-block work distribution.  The
timing model (:func:`~repro.gpu.timing.estimate`) converts those statistics into a
deterministic execution-time estimate using a roofline-style model with an
SM-level thread-block scheduler for load imbalance.

The model is relative, not absolute: it preserves which format/schedule wins
and by roughly what factor (the quantities the paper's evaluation is about),
not wall-clock milliseconds on a specific part.
"""

from repro.gpu.device import (
    A100,
    V100,
    DeviceLostError,
    GPUSpec,
    SimulatedDevice,
    SimulatedOOMError,
)
from repro.gpu.executor import ScheduleResult
from repro.gpu.faults import FaultPolicy, FaultyDevice
from repro.gpu.memory import (
    CacheModel,
    atomic_store_bytes,
    coalesced_bytes,
    scattered_bytes,
)
from repro.gpu.stats import KernelStats, Measurement
from repro.gpu.timing import TimeBreakdown

__all__ = [
    "GPUSpec",
    "SimulatedDevice",
    "SimulatedOOMError",
    "DeviceLostError",
    "FaultPolicy",
    "FaultyDevice",
    "V100",
    "A100",
    "ScheduleResult",
    "CacheModel",
    "coalesced_bytes",
    "scattered_bytes",
    "atomic_store_bytes",
    "KernelStats",
    "Measurement",
    "TimeBreakdown",
]
