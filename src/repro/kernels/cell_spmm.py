"""SpMM over the CELL format — Algorithm 2 of the paper."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.formats.base import VALUE_DTYPE
from repro.formats.cell import Bucket, CELLFormat
from repro.gpu.memory import coalesced_bytes
from repro.gpu.stats import KernelStats
from repro.kernels.base import (
    WAVE_BLOCKS,
    SpMMKernel,
    check_dense_operand,
    operand_footprint,
    wave_unique_refs,
)


def bucket_wave_refs(bucket: Bucket, num_cols: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`wave_unique_refs` over a bucket's rows in bucket order, one
    wave per ``WAVE_BLOCKS`` co-resident blocks.  A bucket that fits one
    wave is read in slab order: its counts do not depend on row order."""
    rows_per_wave = bucket.block_rows * WAVE_BLOCKS
    indptr, indices, _ = bucket.entries(ordered=bucket.num_rows > rows_per_wave)
    return wave_unique_refs(indptr, indices, rows_per_wave, num_cols)


class CELLSpMM(SpMMKernel):
    """Blockwise SpMM over CELL buckets (Algorithm 2).

    Every block processes exactly ``2**k`` stored elements, so thread-block
    costs are uniform and load balance is near perfect.  Column-index and
    value arrays are read with fully coalesced bursts; writes to ``C`` use
    ``atomicAdd`` when the format requires it (multiple partitions, or
    folded rows in the bucket).  All buckets are horizontally fused into a
    single launch, matching the TVM fusion pass of Section 6.
    """

    name = "cell"

    def __init__(self, fused: bool = True):
        self.fused = fused

    def _bucket_stats(
        self,
        fmt: CELLFormat,
        bucket: Bucket,
        J: int,
        partition_cols: int,
        footprint: float,
    ) -> KernelStats:
        """One bucket's launch; ``footprint`` is the whole plan's operand
        footprint, computed once per plan."""
        R, W = bucket.num_rows, bucket.width
        stored = bucket.stored_elements
        atomic = fmt.needs_atomic(bucket)
        out_words = float(R * J)
        # Column partitioning bounds the B working set to the partition's
        # columns — the data-locality mechanism of Section 4.
        unique, refs = bucket_wave_refs(bucket, fmt.shape[1])
        b_bytes = self.CACHE.b_traffic_bytes(
            unique_per_wave=unique,
            refs_per_wave=refs,
            J=J,
            num_b_rows=partition_cols,
        )
        n_blocks = bucket.num_blocks
        block_costs = np.full(n_blocks, 2.0 * float(bucket.block_nnz) * J)
        if n_blocks:
            tail_rows = R - (n_blocks - 1) * bucket.block_rows
            block_costs[-1] = 2.0 * float(tail_rows * W) * J
        return KernelStats(
            coalesced_load_bytes=coalesced_bytes(R + 2 * stored) + b_bytes,
            coalesced_store_bytes=0.0 if atomic else coalesced_bytes(out_words),
            atomic_store_bytes=coalesced_bytes(out_words) if atomic else 0.0,
            flops=2.0 * stored * J,
            block_costs=block_costs,
            threads_per_block=128,
            lane_utilization=1.0,
            bandwidth_efficiency=1.15,  # dense coalesced Ellpack streaming
            lpt_dispatch=True,  # equal-size blocks: order is irrelevant
            num_launches=1,
            footprint_bytes=footprint,
            label=f"{self.name}[w={W}]",
        )

    def plan(self, fmt: CELLFormat, J: int) -> KernelStats:
        if not isinstance(fmt, CELLFormat):
            raise TypeError(f"{self.name} kernel requires CELLFormat, got {type(fmt).__name__}")
        I, K = fmt.shape
        footprint = operand_footprint(fmt.footprint_bytes, K, I, J)
        per_bucket = [
            self._bucket_stats(fmt, bucket, J, part.num_cols, footprint)
            for part, bucket in fmt.iter_buckets()
        ]
        if not per_bucket:
            return KernelStats(
                coalesced_store_bytes=coalesced_bytes(I * J),
                flops=0.0,
                block_costs=np.zeros(0),
                num_launches=1,
                footprint_bytes=footprint,
                label=self.name,
            )
        merged = KernelStats.merge(per_bucket)
        launches = 1 if self.fused else len(per_bucket)
        stores = merged.coalesced_store_bytes
        if merged.atomic_store_bytes > 0:
            # atomicAdd accumulation needs its target rows zero-initialized;
            # only the rows written by atomic buckets are memset.
            atomic_rows = sum(
                bucket.num_output_rows
                for _, bucket in fmt.iter_buckets()
                if fmt.needs_atomic(bucket)
            )
            stores += float(min(atomic_rows, I)) * J * 4
            launches += 1
        return replace(
            merged,
            coalesced_store_bytes=stores,
            num_launches=launches,
            label=self.name,
        )

    def execute(self, fmt: CELLFormat, B: np.ndarray) -> np.ndarray:
        B = check_dense_operand(B, fmt.shape[1])
        I, J = fmt.shape[0], B.shape[1]
        C = np.zeros((I, J), dtype=VALUE_DTYPE)
        untouched = True  # no pass has written C yet
        for part in fmt.partitions:
            if not part.slab.nnz:
                continue
            passes = zip(part.ranks, part.ranks[1:])
            partial = np.asarray(part.slab @ B)
            rows = part.row_ind.astype(np.intp)
            # One pass per fold rank.  A pass writes each output row at
            # most once, so plain ``+=`` is exact, and a folded row sums its
            # chunks in chunk order -- the atomicAdd path of the plan.
            if untouched:
                # Rows are still zero: adding 0.0 and assigning gives the
                # bytes of ``+=`` (a -0.0 turns into 0.0) without reading C.
                lo, hi = next(passes)
                first = np.add(partial[lo:hi], 0.0, out=partial[lo:hi])
                C[rows[lo:hi]] = first
                untouched = False
            for lo, hi in passes:
                C[rows[lo:hi]] += partial[lo:hi]
        return C
