"""SpMV kernels: scalar-CSR, vector-CSR, and merge-based CSR.

Sparse matrix-vector multiplication is the J=1 corner of SpMM and the
subject of much of the paper's related work (Auto-SpMV, Seer, WISE,
Merrill & Garland's merge-based decomposition).  These kernels model the
three classic CSR SpMV strategies on the simulated device:

* **scalar**: one thread per row — catastrophic divergence on skewed rows;
* **vector**: one warp per row — wasted lanes on short rows, good on long;
* **merge**: Merrill & Garland's MergePath split of (rows + nnz) into
  exactly equal shares — perfect balance at the price of atomic fix-ups
  at share boundaries.

They reuse the SpMM kernel interface with ``J = 1`` (``B`` is an
``(K, 1)`` column), so the whole measurement stack applies unchanged.
"""

from __future__ import annotations

import numpy as np

from repro.formats.csr import CSRFormat
from repro.gpu.memory import CacheModel, coalesced_bytes, scattered_bytes
from repro.gpu.stats import KernelStats
from repro.kernels.base import (
    WAVE_BLOCKS,
    SpMMKernel,
    check_dense_operand,
    operand_footprint,
    wave_unique_refs,
)


class _CSRSpMVBase(SpMMKernel):
    """Shared plumbing: x-vector gather traffic and numeric execution."""

    CACHE = CacheModel(min_miss=0.1)

    def _x_bytes(self, fmt: CSRFormat, rows_per_wave: int) -> float:
        unique, refs = wave_unique_refs(
            fmt.indptr, fmt.indices, rows_per_wave, fmt.shape[1]
        )
        # J=1: each x element is a 4-byte word; gathers expand to sectors
        # unless the wave's working set is cache-resident, which the cache
        # model handles at row granularity (row = 1 word here).
        return self.CACHE.b_traffic_bytes(unique, refs, 1, fmt.shape[1]) * 8.0

    def execute(self, fmt: CSRFormat, x: np.ndarray) -> np.ndarray:
        x = check_dense_operand(np.atleast_2d(np.asarray(x, dtype=np.float32).reshape(fmt.shape[1], -1)), fmt.shape[1])
        return np.asarray(fmt.to_csr() @ x)

    def run(self, fmt: CSRFormat, x: np.ndarray, device):
        """SpMV run: a 1-D ``x`` is a single column (the generic SpMM
        ``run`` would index ``x.shape[1]``)."""
        x = np.asarray(x, dtype=np.float32).reshape(fmt.shape[1], -1)
        return super().run(fmt, x, device)

    def _common(self, fmt: CSRFormat) -> tuple[int, int, int]:
        if not isinstance(fmt, CSRFormat):
            raise TypeError(f"{self.name} requires CSRFormat, got {type(fmt).__name__}")
        I, K = fmt.shape
        return I, K, fmt.nnz


class ScalarCSRSpMV(_CSRSpMVBase):
    """One thread per row: a warp retires with its longest resident row."""

    name = "spmv-scalar"

    def plan(self, fmt: CSRFormat, J: int = 1) -> KernelStats:
        I, K, nnz = self._common(fmt)
        lengths = fmt.row_lengths.astype(np.float64)
        rpb = 128  # threads (= rows) per block
        n_blocks = -(-I // rpb) if I else 0
        pad = n_blocks * rpb - I
        padded = np.concatenate([lengths, np.zeros(pad)])
        grouped = padded.reshape(n_blocks, rpb) if n_blocks else padded.reshape(0, rpb)
        # every warp serializes on its longest row; charge the block with
        # 32x the max row (the whole warp idles behind it)
        block_costs = 2.0 * grouped.max(axis=1) * 32.0
        # per-thread index/value gathers are NOT coalesced across lanes
        a_bytes = scattered_bytes(2 * nnz, locality=0.25)
        return KernelStats(
            coalesced_load_bytes=coalesced_bytes(I + 1) + self._x_bytes(fmt, rpb * WAVE_BLOCKS),
            scattered_load_bytes=a_bytes,
            coalesced_store_bytes=coalesced_bytes(I),
            flops=2.0 * nnz,
            block_costs=block_costs,
            lane_utilization=0.5,
            bandwidth_efficiency=0.6,
            num_launches=1,
            footprint_bytes=operand_footprint(fmt.footprint_bytes, K, I, 1),
            label=self.name,
        )


class VectorCSRSpMV(_CSRSpMVBase):
    """One warp per row with an intra-warp reduction."""

    name = "spmv-vector"

    def plan(self, fmt: CSRFormat, J: int = 1) -> KernelStats:
        I, K, nnz = self._common(fmt)
        lengths = fmt.row_lengths.astype(np.float64)
        rpb = 4  # warps (= rows) per block
        n_blocks = -(-I // rpb) if I else 0
        pad = n_blocks * rpb - I
        padded = np.concatenate([lengths, np.zeros(pad)])
        grouped = padded.reshape(n_blocks, rpb) if n_blocks else padded.reshape(0, rpb)
        # the warp strides its row: cost = max row + log2(32) reduction
        block_costs = 2.0 * (grouped.max(axis=1) + 5.0)
        # lanes idle when rows are shorter than the warp
        util = float(np.minimum(lengths[lengths > 0], 32).mean() / 32) if nnz else 1.0
        return KernelStats(
            coalesced_load_bytes=(
                coalesced_bytes(I + 1 + 2 * nnz)
                + self._x_bytes(fmt, rpb * WAVE_BLOCKS)
            ),
            coalesced_store_bytes=coalesced_bytes(I),
            flops=2.0 * nnz,
            block_costs=block_costs,
            lane_utilization=max(min(util, 1.0), 1e-3),
            bandwidth_efficiency=0.9,
            num_launches=1,
            footprint_bytes=operand_footprint(fmt.footprint_bytes, K, I, 1),
            label=self.name,
        )


class MergeCSRSpMV(_CSRSpMVBase):
    """Merrill & Garland merge-based SpMV: equal (row + nnz) shares."""

    name = "spmv-merge"

    #: (row + non-zero) merge-path items per thread block.
    ITEMS_PER_BLOCK = 256

    def plan(self, fmt: CSRFormat, J: int = 1) -> KernelStats:
        I, K, nnz = self._common(fmt)
        total_items = I + nnz
        ipb = self.ITEMS_PER_BLOCK
        n_blocks = -(-total_items // ipb) if total_items else 0
        block_costs = np.full(n_blocks, 2.0 * ipb)
        if n_blocks:
            block_costs[-1] = 2.0 * (total_items - (n_blocks - 1) * ipb)
        # shares straddling row boundaries fix up with one atomic each
        atomic_words = n_blocks
        return KernelStats(
            coalesced_load_bytes=(
                coalesced_bytes(I + 1 + 2 * nnz)
                + self._x_bytes(fmt, max(1, ipb * WAVE_BLOCKS // 8))
            ),
            coalesced_store_bytes=coalesced_bytes(I),
            atomic_store_bytes=float(atomic_words * 4),
            flops=2.0 * nnz,
            block_costs=block_costs,
            lane_utilization=0.9,
            bandwidth_efficiency=0.95,
            lpt_dispatch=True,  # uniform shares
            num_launches=2,  # path-search + compute
            footprint_bytes=operand_footprint(fmt.footprint_bytes, K, I, 1),
            label=self.name,
        )
