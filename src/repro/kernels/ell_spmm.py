"""Ellpack-family SpMM kernels (plain ELL and Sliced-ELL)."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.formats.base import VALUE_DTYPE
from repro.formats.ell import PAD, ELLFormat
from repro.formats.sliced_ell import SlicedELLFormat
from repro.gpu.memory import coalesced_bytes
from repro.gpu.stats import KernelStats
from repro.kernels.base import (
    WAVE_BLOCKS,
    SpMMKernel,
    check_dense_operand,
    operand_footprint,
    wave_unique_refs,
)


def _ell_slab_product(
    col: np.ndarray, val: np.ndarray, B: np.ndarray, num_cols: int
) -> np.ndarray:
    """Multiply one padded ELL slab against B without materializing R*W*J.

    Builds a CSR view of the slab's real entries and uses a sparse matmul —
    the same arithmetic Algorithm 2 performs, element by element.
    """
    R, W = col.shape
    mask = col != PAD
    rows = np.nonzero(mask)[0]
    m = sp.csr_matrix(
        (val[mask], (rows, col[mask])), shape=(R, num_cols), dtype=VALUE_DTYPE
    )
    return np.asarray(m @ B)


class ELLSpMM(SpMMKernel):
    """Plain ELL SpMM: one thread row, lanes across J, fully coalesced.

    Perfectly regular but computes and moves every padded slot; a single
    long row makes the whole matrix pay its width.
    """

    name = "ell"

    #: Rows per thread block.
    ROWS_PER_BLOCK = 32

    def plan(self, fmt: ELLFormat, J: int) -> KernelStats:
        if not isinstance(fmt, ELLFormat):
            raise TypeError(f"{self.name} kernel requires ELLFormat, got {type(fmt).__name__}")
        I, K = fmt.shape
        W = fmt.width
        stored = fmt.stored_elements
        rpb = self.ROWS_PER_BLOCK
        n_blocks = -(-I // rpb) if I else 0
        block_costs = np.full(n_blocks, 2.0 * float(rpb * W) * J)
        mask = fmt.col != PAD
        indptr = np.concatenate([[0], np.cumsum(mask.sum(axis=1))])
        unique, refs = wave_unique_refs(indptr, fmt.col[mask], rpb * WAVE_BLOCKS, K)
        b_bytes = self.CACHE.b_traffic_bytes(
            unique_per_wave=unique,
            refs_per_wave=refs,
            J=J,
            num_b_rows=K,
        )
        return KernelStats(
            coalesced_load_bytes=coalesced_bytes(2 * stored) + b_bytes,
            coalesced_store_bytes=coalesced_bytes(I * J),
            flops=2.0 * stored * J,
            block_costs=block_costs,
            threads_per_block=128,
            lane_utilization=1.0,
            bandwidth_efficiency=1.15,  # dense coalesced Ellpack streaming
            num_launches=1,
            footprint_bytes=operand_footprint(fmt.footprint_bytes, K, I, J),
            label=self.name,
        )

    def execute(self, fmt: ELLFormat, B: np.ndarray) -> np.ndarray:
        B = check_dense_operand(B, fmt.shape[1])
        return _ell_slab_product(fmt.col, fmt.val, B, fmt.shape[1])


class SlicedELLSpMM(SpMMKernel):
    """Sliced-ELL SpMM: one thread block per slice, slice-local width."""

    name = "sliced-ell"

    def plan(self, fmt: SlicedELLFormat, J: int) -> KernelStats:
        if not isinstance(fmt, SlicedELLFormat):
            raise TypeError(
                f"{self.name} kernel requires SlicedELLFormat, got {type(fmt).__name__}"
            )
        I, K = fmt.shape
        stored = fmt.stored_elements
        block_costs = np.array(
            [2.0 * float(s.col.size) * J for s in fmt.slices], dtype=np.float64
        )
        # One slice maps to one thread block; a wave spans WAVE_BLOCKS slices.
        slice_h = fmt.slices[0].num_rows if fmt.slices else 1
        if fmt.slices:
            # Treat the whole matrix as one CSR stream with slice-sized waves.
            masks = [s.col != PAD for s in fmt.slices]
            lengths = np.concatenate([m.sum(axis=1) for m in masks])
            indptr = np.concatenate([[0], np.cumsum(lengths)])
            indices = np.concatenate([s.col[m] for s, m in zip(fmt.slices, masks)])
            unique, refs = wave_unique_refs(
                indptr, indices, slice_h * WAVE_BLOCKS, K
            )
        else:
            unique = refs = np.zeros(0, dtype=np.int64)
        b_bytes = self.CACHE.b_traffic_bytes(
            unique_per_wave=unique,
            refs_per_wave=refs,
            J=J,
            num_b_rows=K,
        )
        return KernelStats(
            coalesced_load_bytes=coalesced_bytes(2 * stored) + b_bytes,
            coalesced_store_bytes=coalesced_bytes(I * J),
            flops=2.0 * stored * J,
            block_costs=block_costs,
            threads_per_block=128,
            lane_utilization=1.0,
            bandwidth_efficiency=1.1,  # slice-local Ellpack streaming
            num_launches=1,
            footprint_bytes=operand_footprint(fmt.footprint_bytes, K, I, J),
            label=self.name,
        )

    def execute(self, fmt: SlicedELLFormat, B: np.ndarray) -> np.ndarray:
        B = check_dense_operand(B, fmt.shape[1])
        I, J = fmt.shape[0], B.shape[1]
        C = np.zeros((I, J), dtype=VALUE_DTYPE)
        for s in fmt.slices:
            C[s.row_start : s.row_start + s.num_rows] = _ell_slab_product(
                s.col, s.val, B, fmt.shape[1]
            )
        return C
