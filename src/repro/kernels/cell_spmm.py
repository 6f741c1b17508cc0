"""SpMM over the CELL format — Algorithm 2 of the paper."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.formats.base import VALUE_DTYPE
from repro.formats.cell import Bucket, CELLFormat, Partition
from repro.gpu.memory import coalesced_bytes
from repro.gpu.stats import KernelStats
from repro.kernels.base import (
    WAVE_BLOCKS,
    SpMMKernel,
    check_dense_operand,
    distinct_per_group,
    operand_footprint,
    wave_unique_refs,
)


def partition_wave_refs(part: Partition, num_cols: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """:func:`wave_unique_refs` of each bucket of ``part`` over its rows in
    bucket order, one wave per ``WAVE_BLOCKS`` co-resident blocks.  The
    counts of a bucket that fits one wave do not depend on row order, so
    they are taken for all buckets at once in one pass over the slab."""
    buckets = part.buckets
    group = np.zeros(part.slab.shape[0], dtype=np.intp)  # each slab row's bucket
    group[part.order] = np.repeat(np.arange(len(buckets)), [b.hi - b.lo for b in buckets])
    group[group.size - part.tail_rows.size :] = len(buckets) - 1
    entry_group = np.repeat(group, np.diff(part.slab.indptr))
    refs = np.bincount(entry_group, minlength=len(buckets))
    unique = distinct_per_group(entry_group * num_cols + part.slab.indices, len(buckets), num_cols)
    return [
        (unique[k : k + 1], refs[k : k + 1])
        if b.num_rows <= b.block_rows * WAVE_BLOCKS
        else wave_unique_refs(*b.entries()[:2], b.block_rows * WAVE_BLOCKS, num_cols)
        for k, b in enumerate(buckets)
    ]


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
        unique: np.ndarray,
        refs: np.ndarray,
    ) -> KernelStats:
        """One bucket's launch; ``footprint`` is the whole plan's operand
        footprint, computed once per plan, and ``unique``/``refs`` the
        bucket's :func:`partition_wave_refs`."""
        R, W = bucket.num_rows, bucket.width
        stored = bucket.stored_elements
        atomic = fmt.needs_atomic(bucket)
        out_words = float(R * J)
        # Column partitioning bounds the B working set to the partition's
        # columns — the data-locality mechanism of Section 4.
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
            self._bucket_stats(fmt, bucket, J, part.num_cols, footprint, *wave)
            for part in fmt.partitions
            for bucket, wave in zip(part.buckets, partition_wave_refs(part, K))
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
        I = fmt.shape[0]
        C = None
        for part in fmt.partitions:
            if not part.slab.nnz:
                continue
            # The slab's first I rows are in C's row order: the product's
            # head is C itself for the first partition, a dense add after.
            partial = np.asarray(part.slab @ B)
            if C is None:
                C = partial[:I]
            else:
                C += partial[:I]
            if part.fold_rows.size:
                # One product sums each folded row's running value and its
                # tail chunks in rank order: scipy starts each sum at +0.0
                # and adds in stored order, so this is the atomicAdd path's
                # ((C + head) + t1) + t2 ... bit for bit.
                C[part.fold_rows] = part.combine @ np.vstack((C[part.fold_rows], partial[I:]))
        if C is None:
            return np.zeros((I, B.shape[1]), dtype=VALUE_DTYPE)
        return C
