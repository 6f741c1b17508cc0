"""Multi-GPU SpMM — the extension sketched in the paper's Section 10.

The conclusion names "multiple GPUs" as future work; this module implements
the standard 1-D row decomposition on the simulated devices:

* the sparse matrix's rows are split into one contiguous shard per GPU
  (balanced by non-zeros, not rows — shards get equal work);
* the dense operand ``B`` is broadcast once over the interconnect;
* each GPU runs the (independently composed) kernel on its shard;
* the row-partitioned result needs no reduction — only a gather of ``C``.

``time = broadcast + max_i(shard kernel time) + gather``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.formats.base import as_csr
from repro.gpu.device import SimulatedDevice, V100


@dataclass(frozen=True)
class MultiGPUSpec:
    """A homogeneous node of ``num_gpus`` V100s on an NVLink-class fabric."""

    num_gpus: int = 4
    gpu = V100
    #: Per-link interconnect bandwidth in GB/s.
    interconnect_gbs = 150.0
    #: Fixed per-collective latency in microseconds.
    collective_latency_us = 10.0

    def __post_init__(self) -> None:
        if self.num_gpus < 1:
            raise ValueError(f"num_gpus must be >= 1, got {self.num_gpus}")


@dataclass
class MultiGPUResult:
    """Timing decomposition of one multi-GPU SpMM."""

    total_s: float
    broadcast_s: float
    compute_s: float
    gather_s: float
    shard_times_s: list[float]
    shard_rows: list[tuple[int, int]]

    @property
    def balance(self) -> float:
        """max shard time / mean shard time (1.0 = perfect)."""
        mean = float(np.mean(self.shard_times_s))
        return max(self.shard_times_s) / mean if mean > 0 else 1.0


def partition_rows_by_nnz(A: sp.csr_matrix, num_shards: int) -> list[tuple[int, int]]:
    """Contiguous row ranges with (approximately) equal non-zero counts.

    ``num_shards`` is clamped to the row count (a shard needs at least
    one row to be meaningful), so asking for more shards than rows
    returns one range per row.
    """
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    I = A.shape[0]
    num_shards = min(num_shards, max(1, I))
    if A.nnz == 0:
        # All nnz targets coincide at 0, which would collapse every
        # searchsorted cut onto row 0 (first shard gets all rows, the
        # rest nothing).  With no work to balance, balance rows instead.
        edges = np.linspace(0, I, num_shards + 1).astype(int)
        return [(int(edges[i]), int(edges[i + 1])) for i in range(num_shards)]
    targets = np.linspace(0, A.nnz, num_shards + 1)
    cuts = np.searchsorted(A.indptr, targets[1:-1], side="left")
    edges = [0, *[int(c) for c in cuts], I]
    # enforce monotone non-empty-ish ranges
    for i in range(1, len(edges)):
        edges[i] = max(edges[i], edges[i - 1])
    edges[-1] = I
    return [(edges[i], edges[i + 1]) for i in range(num_shards)]


class MultiGPUSimulator:
    """Row-decomposed SpMM across several simulated GPUs.

    ``compose_fn(shard_matrix, J) -> (fmt, kernel)`` decides how each GPU
    represents its shard — pass LiteForm's composition for the full
    pipeline, or a fixed-format builder for baselines.
    """

    def __init__(self, spec: MultiGPUSpec | None = None):
        self.spec = spec or MultiGPUSpec()
        #: One simulated device per GPU — shard ``i`` always measures on
        #: ``devices[i]``.
        self.devices = [
            SimulatedDevice(spec=self.spec.gpu) for _ in range(self.spec.num_gpus)
        ]

    def measure(self, A: sp.spmatrix, J: int, compose_fn) -> MultiGPUResult:
        A = as_csr(A)
        if J < 1:
            raise ValueError(f"J must be >= 1, got {J}")
        shards = partition_rows_by_nnz(A, self.spec.num_gpus)
        shard_times: list[float] = []
        for (r0, r1), device in zip(shards, self.devices):
            sub = A[r0:r1]
            if sub.nnz == 0:
                shard_times.append(0.0)
                continue
            fmt, kernel = compose_fn(sub, J)
            shard_times.append(kernel.measure(fmt, J, device).time_s)

        link = self.spec.interconnect_gbs * 1e9
        lat = self.spec.collective_latency_us * 1e-6
        if self.spec.num_gpus == 1:
            broadcast_s = gather_s = 0.0
        else:
            b_bytes = float(A.shape[1]) * J * 4
            # ring broadcast: each GPU receives B once
            broadcast_s = lat + b_bytes / link
            # gather: every GPU ships its C shard to the host/root
            c_bytes = float(A.shape[0]) * J * 4
            gather_s = lat + c_bytes / link
        compute_s = max(shard_times) if shard_times else 0.0
        return MultiGPUResult(
            total_s=broadcast_s + compute_s + gather_s,
            broadcast_s=broadcast_s,
            compute_s=compute_s,
            gather_s=gather_s,
            shard_times_s=shard_times,
            shard_rows=shards,
        )


def liteform_compose_fn(liteform, force_cell: bool | None = True):
    """Adapter: LiteForm composition as a :class:`MultiGPUSimulator` hook."""

    def compose(sub: sp.csr_matrix, J: int):
        plan = liteform.compose(sub, J, force_cell=force_cell)
        return plan.fmt, plan.kernel

    return compose
