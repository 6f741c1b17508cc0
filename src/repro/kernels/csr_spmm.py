"""CSR SpMM kernels: cuSPARSE-, Sputnik-, and dgSPARSE-style schedules."""

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


class RowSplitCSRSpMM(SpMMKernel):
    """Row-split CSR SpMM — the cuSPARSE-style baseline schedule.

    One warp per sparse row; the warp's lanes tile the dense dimension
    ``J``, so accesses to ``B[k, :]`` are coalesced bursts.  Thread blocks
    cover ``ROWS_PER_BLOCK`` consecutive rows.  The strategy's weaknesses,
    which the statistics expose directly, are (a) load imbalance when row
    lengths are skewed — a block finishes with its *longest* row — and
    (b) per-row loop overhead dominating on very short rows.
    """

    name = "cusparse"

    #: Generic library code: no shared-memory staging, so the reuse floor is
    #: higher than the hand-tuned kernels below.
    CACHE = CacheModel(min_miss=0.12)
    #: Consecutive rows, one warp each, per thread block.
    ROWS_PER_BLOCK = 4
    #: Fixed work (in element-equivalents) charged per row for loop
    #: setup, pointer chasing, and short-row underutilization.
    ROW_OVERHEAD = 16.0
    #: Whether the A column-index gather issues full sectors per warp
    #: (wasteful on short rows); hand-tuned kernels stage them instead.
    SECTORED_INDEX_LOADS = True
    #: Generic library entry points run an analysis/setup pass per call.
    NUM_LAUNCHES = 2
    #: Achieved-DRAM-bandwidth multiplier: the generic gather kernel is
    #: latency-bound and sustains less of peak than streaming kernels.
    BANDWIDTH_EFFICIENCY = 0.85
    #: Whether B-traffic waves follow the (possibly swizzled) processing
    #: order instead of the natural row order.
    TRAFFIC_FOLLOWS_ROW_ORDER = False
    #: Output-column tile width per thread block (``None``: all of J).
    J_TILE: int | None = None

    # -- schedule hooks overridden by subclasses -----------------------
    def _row_order(self, fmt: CSRFormat) -> np.ndarray | None:
        """Row permutation applied before forming thread blocks.

        Affects load balance only: real swizzles remap row ids inside the
        kernel, which leaves the L2's view of B-traffic locality (set by
        wave co-residency over the whole device) essentially unchanged.
        """
        return None

    def plan(self, fmt: CSRFormat, J: int) -> KernelStats:
        if not isinstance(fmt, CSRFormat):
            raise TypeError(f"{self.name} kernel requires CSRFormat, got {type(fmt).__name__}")
        I, K = fmt.shape
        nnz = fmt.nnz
        lengths = fmt.row_lengths
        order = self._row_order(fmt)
        if order is not None:
            lengths = lengths[order]
        rpb = self.ROWS_PER_BLOCK
        n_units = int(lengths.size)
        n_blocks = -(-n_units // rpb) if n_units else 0
        pad = n_blocks * rpb - n_units
        padded = np.concatenate([lengths, np.zeros(pad, dtype=lengths.dtype)])
        per_block = padded.reshape(n_blocks, rpb) if n_blocks else padded.reshape(0, rpb)
        # flops per block: the block retires with its longest row's warp.
        # Output tiling (J_TILE < J) splits each row's work across several
        # blocks, shrinking the worst straggler proportionally.
        jt = max(1, min(self.J_TILE or J, J))
        j_repeats = -(-J // jt)
        block_costs = np.tile(
            2.0 * (per_block.max(axis=1) + self.ROW_OVERHEAD) * jt, j_repeats
        )

        if self.TRAFFIC_FOLLOWS_ROW_ORDER and order is not None:
            # Swizzled processing scrambles which rows are co-resident,
            # degrading the wave's column locality.
            nat_lengths = fmt.row_lengths
            perm_lengths = nat_lengths[order]
            perm_indptr = np.concatenate([[0], np.cumsum(perm_lengths)]).astype(
                np.int64
            )
            starts = fmt.indptr[order].astype(np.int64)
            src = np.repeat(starts, perm_lengths) + (
                np.arange(nnz) - np.repeat(perm_indptr[:-1], perm_lengths)
            )
            w_indptr, w_indices = perm_indptr, fmt.indices[src]
        else:
            w_indptr, w_indices = fmt.indptr, fmt.indices
        unique, refs = wave_unique_refs(
            w_indptr, w_indices, rpb * WAVE_BLOCKS, K
        )
        b_bytes = self.CACHE.b_traffic_bytes(
            unique_per_wave=unique,
            refs_per_wave=refs,
            J=J,
            num_b_rows=K,
        )
        if self.SECTORED_INDEX_LOADS and nnz:
            # Each warp gathers its own row's indices; short rows waste most
            # of every 32-byte sector.
            avg_len = nnz / max(1, int(np.count_nonzero(lengths)))
            index_bytes = scattered_bytes(nnz, locality=min(1.0, avg_len / 8.0))
        else:
            index_bytes = coalesced_bytes(nnz)
        a_bytes = index_bytes + coalesced_bytes(I + 1 + nnz)  # + indptr + val
        c_bytes = coalesced_bytes(I * J)
        return KernelStats(
            coalesced_load_bytes=a_bytes + b_bytes,
            scattered_load_bytes=0.0,
            coalesced_store_bytes=c_bytes,
            atomic_store_bytes=0.0,
            flops=2.0 * nnz * J,
            block_costs=block_costs,
            threads_per_block=rpb * 32,
            lane_utilization=1.0,
            bandwidth_efficiency=self.BANDWIDTH_EFFICIENCY,
            lpt_dispatch=self._row_order(fmt) is not None,
            num_launches=self.NUM_LAUNCHES,
            footprint_bytes=operand_footprint(fmt.footprint_bytes, K, I, J),
            label=self.name,
        )

    def execute(self, fmt: CSRFormat, B: np.ndarray) -> np.ndarray:
        B = check_dense_operand(B, fmt.shape[1])
        return np.asarray(fmt.to_csr() @ B)


class SputnikSpMM(RowSplitCSRSpMM):
    """Sputnik-style CSR SpMM [Gale et al., SC'20].

    Adds (a) *row swizzle*: rows are sorted by length so each block's warps
    process similar-length rows, removing most intra-block imbalance, and
    (b) subwarp tiling + vector memory instructions, reducing the fixed
    per-row overhead.  The memory side is unchanged CSR traffic.
    """

    name = "sputnik"

    CACHE = CacheModel(min_miss=0.08)
    ROW_OVERHEAD = 6.0  # subwarp tiling trims the per-row setup
    SECTORED_INDEX_LOADS = False  # vector loads fetch index tiles wholesale
    NUM_LAUNCHES = 1  # single hand-written kernel
    BANDWIDTH_EFFICIENCY = 0.92  # vector loads, but still a gather kernel
    TRAFFIC_FOLLOWS_ROW_ORDER = True  # swizzle scrambles wave locality
    #: Sputnik's 1-D output tiling: each block owns a (rows x J_TILE)
    #: slice of C, so a long row's work spreads over J/J_TILE blocks.
    J_TILE = 128

    def _row_order(self, fmt: CSRFormat) -> np.ndarray:
        # Stable descending length sort: the published row-swizzle balance trick.
        return np.argsort(-fmt.row_lengths, kind="stable")


class DgSparseSpMM(RowSplitCSRSpMM):
    """dgSPARSE/GE-SpMM-style CSR SpMM [Huang et al., SC'20].

    Coalesced row caching: the block stages its rows' column indices in
    shared memory so warps issue wide coalesced loads of ``B`` and reuse
    staged indices, improving achieved reuse (lower cache miss floor) while
    keeping the natural row order.
    """

    name = "dgsparse"

    CACHE = CacheModel(min_miss=0.06)
    ROW_OVERHEAD = 4.0  # staged indices: the cheapest per-row setup
    SECTORED_INDEX_LOADS = False  # indices staged through shared memory
    NUM_LAUNCHES = 1  # single hand-written kernel
    BANDWIDTH_EFFICIENCY = 0.92  # coalesced, but gather-bound row groups
