"""SDDMM kernels — Section 10's "various sparse computational kernels".

Sampled dense-dense matrix multiplication computes, for every stored
position of a sparse matrix ``A``::

    C[i, j] = A[i, j] * (U[i, :] . V[j, :])

with dense ``U (I, K)`` and ``V (J_cols, K)`` — the sparse-attention /
GNN-edge-score primitive that pairs with SpMM in transformer-style GNNs.
The CELL variant reuses the format's structural regularity the same way
the SpMM kernel does: coalesced index/value streams, uniform blocks, and
partition-bounded gather windows on ``V``.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import scipy.sparse as sp

from repro.formats.base import VALUE_DTYPE
from repro.formats.cell import CELLFormat
from repro.formats.csr import CSRFormat
from repro.gpu.memory import CacheModel, coalesced_bytes
from repro.gpu.stats import KernelStats
from repro.kernels.base import (
    WAVE_BLOCKS,
    SpMMKernel,
    wave_unique_refs,
)
from repro.kernels.cell_spmm import partition_wave_refs

#: Row-chunk size for the vectorized execution path (bounds temporaries).
_CHUNK_NNZ = 1 << 18


def sddmm_reference(A: sp.csr_matrix, U: np.ndarray, V: np.ndarray) -> sp.csr_matrix:
    """Ground truth: ``A .* (U @ V.T)`` restricted to A's pattern."""
    U = np.asarray(U, dtype=VALUE_DTYPE)
    V = np.asarray(V, dtype=VALUE_DTYPE)
    _check_operands(A.shape, U, V)
    out = A.copy().astype(VALUE_DTYPE)
    rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    vals = np.empty(A.nnz, dtype=VALUE_DTYPE)
    for lo in range(0, A.nnz, _CHUNK_NNZ):
        hi = min(lo + _CHUNK_NNZ, A.nnz)
        vals[lo:hi] = np.einsum(
            "ij,ij->i", U[rows[lo:hi]], V[A.indices[lo:hi]], dtype=np.float32
        )
    out.data = A.data * vals
    return out


def _check_operands(shape: tuple[int, int], U: np.ndarray, V: np.ndarray) -> None:
    if U.ndim != 2 or V.ndim != 2:
        raise ValueError("U and V must be 2-D")
    if U.shape[0] != shape[0]:
        raise ValueError(f"U has {U.shape[0]} rows, expected {shape[0]}")
    if V.shape[0] != shape[1]:
        raise ValueError(f"V has {V.shape[0]} rows, expected {shape[1]}")
    if U.shape[1] != V.shape[1]:
        raise ValueError(
            f"feature dims differ: U has {U.shape[1]}, V has {V.shape[1]}"
        )


class _SDDMMKernel(SpMMKernel):
    """SDDMM operands are a ``(U, V)`` pair, not one dense matrix, so the
    generic :meth:`SpMMKernel.run` (which plans off ``B.shape[1]``) does
    not apply; plan off the shared feature width ``K = U.shape[1]``."""

    def run(self, fmt, operands, device):
        U, V = operands
        measurement = device.measure(self.stats(fmt, np.asarray(U).shape[1]))
        C = self.execute(fmt, (U, V))
        return C, measurement


class CSRSDDMM(_SDDMMKernel):
    """Element-parallel SDDMM over CSR: one warp per stored element group."""

    name = "sddmm-csr"

    CACHE = CacheModel(min_miss=0.12)
    #: Stored elements per thread block.
    NNZ_PER_BLOCK = 128

    def plan(self, fmt: CSRFormat, K: int) -> KernelStats:
        if not isinstance(fmt, CSRFormat):
            raise TypeError(f"{self.name} requires CSRFormat, got {type(fmt).__name__}")
        I, Jc = fmt.shape
        nnz = fmt.nnz
        npb = self.NNZ_PER_BLOCK
        n_blocks = -(-nnz // npb) if nnz else 0
        block_costs = np.full(n_blocks, 2.0 * npb * K)
        # U rows stream sequentially (row-major over elements); V rows are a
        # gather indexed by colInd with wave-level reuse, like SpMM's B.
        unique, refs = wave_unique_refs(
            fmt.indptr, fmt.indices, max(1, npb * WAVE_BLOCKS // 8), Jc
        )
        v_bytes = self.CACHE.b_traffic_bytes(unique, refs, K, Jc)
        u_bytes = coalesced_bytes(min(nnz, I) * K)
        a_bytes = coalesced_bytes(I + 1 + 2 * nnz)
        return KernelStats(
            coalesced_load_bytes=a_bytes + u_bytes + v_bytes,
            coalesced_store_bytes=coalesced_bytes(nnz),
            flops=2.0 * nnz * K,
            block_costs=block_costs,
            lane_utilization=1.0,
            lpt_dispatch=True,
            num_launches=1,
            footprint_bytes=fmt.footprint_bytes + (I + Jc) * K * 4 + nnz * 4,
            label=self.name,
        )

    def execute(self, fmt: CSRFormat, operands) -> sp.csr_matrix:
        U, V = operands
        A = fmt.to_csr()
        return sddmm_reference(A, U, V)


class CELLSDDMM(_SDDMMKernel):
    """Blockwise SDDMM over CELL buckets: uniform 2^k-element blocks."""

    name = "sddmm-cell"

    def plan(self, fmt: CELLFormat, K: int) -> KernelStats:
        if not isinstance(fmt, CELLFormat):
            raise TypeError(f"{self.name} requires CELLFormat, got {type(fmt).__name__}")
        I, Jc = fmt.shape
        footprint = fmt.footprint_bytes + (I + Jc) * K * 4
        per_bucket = []
        for part in fmt.partitions:
            for bucket, (unique, refs) in zip(part.buckets, partition_wave_refs(part, Jc)):
                R, W = bucket.num_rows, bucket.width
                stored = bucket.stored_elements
                v_bytes = self.CACHE.b_traffic_bytes(unique, refs, K, part.num_cols)
                n_blocks = bucket.num_blocks
                costs = np.full(n_blocks, 2.0 * bucket.block_nnz * K)
                per_bucket.append(
                    KernelStats(
                        coalesced_load_bytes=coalesced_bytes(R + 2 * stored + R * K) + v_bytes,
                        coalesced_store_bytes=coalesced_bytes(stored),
                        flops=2.0 * stored * K,
                        block_costs=costs,
                        lane_utilization=1.0,
                        bandwidth_efficiency=1.15,
                        lpt_dispatch=True,
                        num_launches=1,
                        footprint_bytes=footprint,
                        label=f"{self.name}[w={W}]",
                    )
                )
        if not per_bucket:
            return KernelStats(num_launches=1, label=self.name)
        return replace(KernelStats.merge(per_bucket), num_launches=1, label=self.name)

    def execute(self, fmt: CELLFormat, operands) -> sp.csr_matrix:
        """``C`` on the matrix's canonical pattern: each slab's products land
        at its entries' :attr:`~CELLFormat.gather_map` positions."""
        U, V = operands
        U = np.asarray(U, dtype=VALUE_DTYPE)
        V = np.asarray(V, dtype=VALUE_DTYPE)
        _check_operands(fmt.shape, U, V)
        products = []
        for part in fmt.partitions:
            slab = part.slab
            # first chunks in row order, then the tail chunks
            rows = np.repeat(part.row_ind, np.diff(slab.indptr))
            dots = np.einsum("ij,ij->i", U[rows], V[slab.indices], dtype=np.float32)
            products.append((slab.data * dots, rows, slab.indices))
        src, indptr, indices = fmt.gather_map
        if indices.size < fmt.nnz:
            # duplicate entries: summed by scipy's COO conversion, in its order
            vals, rows, cols = (np.concatenate(x) for x in zip(*products))
            return sp.csr_matrix((vals, (rows, cols)), shape=fmt.shape, dtype=VALUE_DTYPE)
        data = np.empty(indices.size, dtype=VALUE_DTYPE)
        for pos, (vals, _, _) in zip(src, products):
            data[pos] = vals
        return sp.csr_matrix((data, indices.copy(), indptr.copy()), shape=fmt.shape)
