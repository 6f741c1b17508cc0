"""Dense-tile SpMM over BCSR — the Triton block-sparse strategy."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.formats.bcsr import BCSRFormat
from repro.gpu.memory import coalesced_bytes
from repro.gpu.stats import KernelStats
from repro.kernels.base import (
    WAVE_BLOCKS,
    SpMMKernel,
    check_dense_operand,
    operand_footprint,
    wave_unique_refs,
)


class BCSRSpMM(SpMMKernel):
    """Tile-dense SpMM over BCSR (Triton's block-sparse kernels).

    Each stored tile is multiplied densely against the matching ``B`` row
    block — perfectly regular, tensor-core friendly work, but *all* padding
    inside non-zero tiles is computed and moved.  On irregular graphs with
    ~99% tile padding the footprint explodes (the >60x blow-up of
    Section 2.1) and large inputs hit the simulated 16 GB OOM, reproducing
    the OOM bars of Figure 6.
    """

    name = "triton"

    #: Dense tiles run near peak (tensor-core assisted) relative to the
    #: generic scalar efficiency of irregular kernels.
    DENSE_TILE_EFFICIENCY = 3.0

    def plan(self, fmt: BCSRFormat, J: int) -> KernelStats:
        if not isinstance(fmt, BCSRFormat):
            raise TypeError(f"{self.name} kernel requires BCSRFormat, got {type(fmt).__name__}")
        I, K = fmt.shape
        bh, bw = fmt.block_shape
        nb = fmt.num_blocks
        # One thread block per block-row; its work is its tile count.
        per_block_row = np.diff(fmt.indptr).astype(np.float64)
        block_costs = 2.0 * per_block_row * bh * bw * J
        # B reuse: each tile reads a (bw x J) slab of B.  Waves are groups of
        # co-resident block-rows; distinct tile columns within a wave are
        # compulsory fetches, repeats hit per the cache model.
        unique_tiles, ref_tiles = wave_unique_refs(
            fmt.indptr, fmt.indices, WAVE_BLOCKS, -(-K // bw)
        )
        b_bytes = self.CACHE.b_traffic_bytes(
            unique_per_wave=unique_tiles * bw,
            refs_per_wave=ref_tiles * bw,
            J=J,
            num_b_rows=K,
        )
        a_bytes = coalesced_bytes(nb * bh * bw + nb + fmt.indptr.size)
        c_bytes = coalesced_bytes(fmt.num_block_rows * bh * J)
        return KernelStats(
            coalesced_load_bytes=a_bytes + b_bytes,
            scattered_load_bytes=0.0,
            coalesced_store_bytes=c_bytes,
            atomic_store_bytes=0.0,
            flops=2.0 * nb * bh * bw * J,
            block_costs=block_costs,
            threads_per_block=128,
            lane_utilization=1.0,
            compute_efficiency=self.DENSE_TILE_EFFICIENCY,
            bandwidth_efficiency=1.15,  # dense tile streaming
            num_launches=1,
            footprint_bytes=operand_footprint(fmt.footprint_bytes, K, I, J),
            label=self.name,
        )

    def execute(self, fmt: BCSRFormat, B: np.ndarray) -> np.ndarray:
        B = check_dense_operand(B, fmt.shape[1])
        bh, bw = fmt.block_shape
        padded_cols = (int(fmt.indices.max()) + 1) * bw if fmt.indices.size else fmt.shape[1]
        padded_cols = max(padded_cols, fmt.shape[1])
        bsr = sp.bsr_matrix(
            (fmt.blocks, fmt.indices, fmt.indptr),
            shape=(fmt.num_block_rows * bh, padded_cols),
        )
        B_pad = B
        if padded_cols > fmt.shape[1]:
            B_pad = np.vstack(
                [B, np.zeros((padded_cols - fmt.shape[1], B.shape[1]), dtype=B.dtype)]
            )
        C = np.asarray(bsr @ B_pad)
        return C[: fmt.shape[0]]
