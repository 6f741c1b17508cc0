"""Blocked Ellpack: ELL layout over dense tiles instead of scalars."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.formats.base import INDEX_DTYPE, VALUE_DTYPE, SparseFormat

#: Block-column sentinel marking padding tiles.
PAD_BLOCK = INDEX_DTYPE(-1)


class BlockedELLFormat(SparseFormat):
    """Blocked-ELL [Choi et al.]: each block-row stores the same number of
    dense tiles (the maximum over the matrix), padded with zero tiles.

    Combines BCSR's tile regularity with ELL's fixed-width rows; suffers
    both forms of padding on irregular inputs.
    """

    def __init__(
        self,
        shape: tuple[int, int],
        block_shape: tuple[int, int],
        block_cols: np.ndarray,
        blocks: np.ndarray,
        nnz: int,
    ):
        self.shape = (int(shape[0]), int(shape[1]))
        self.block_shape = (int(block_shape[0]), int(block_shape[1]))
        self.block_cols = np.ascontiguousarray(block_cols, dtype=INDEX_DTYPE)
        self.blocks = np.ascontiguousarray(blocks, dtype=VALUE_DTYPE)
        if self.block_cols.ndim != 2:
            raise ValueError("block_cols must be 2-D (block_rows, ell_width)")
        expected = (*self.block_cols.shape, *self.block_shape)
        if self.blocks.shape != expected:
            raise ValueError(f"blocks must have shape {expected}, got {self.blocks.shape}")
        self.nnz = int(nnz)

    @classmethod
    def from_csr(cls, A: sp.csr_matrix, block_shape: tuple[int, int] = (16, 16)) -> "BlockedELLFormat":
        bh, bw = block_shape
        I, K = A.shape
        pad_i = (-I) % bh
        pad_k = (-K) % bw
        if pad_i or pad_k:
            A = sp.csr_matrix(
                sp.vstack(
                    [
                        sp.hstack([A, sp.csr_matrix((I, pad_k), dtype=VALUE_DTYPE)]),
                        sp.csr_matrix((pad_i, K + pad_k), dtype=VALUE_DTYPE),
                    ]
                )
            )
        bsr = A.tobsr(blocksize=(bh, bw))
        n_block_rows = bsr.indptr.size - 1
        per_row = np.diff(bsr.indptr)
        width = int(per_row.max()) if per_row.size else 0
        width = max(width, 1) if n_block_rows else 0
        block_cols = np.full((n_block_rows, width), PAD_BLOCK, dtype=INDEX_DTYPE)
        blocks = np.zeros((n_block_rows, width, bh, bw), dtype=VALUE_DTYPE)
        for br in range(n_block_rows):
            lo, hi = bsr.indptr[br], bsr.indptr[br + 1]
            n = hi - lo
            block_cols[br, :n] = bsr.indices[lo:hi]
            blocks[br, :n] = bsr.data[lo:hi]
        return cls((I, K), (bh, bw), block_cols, blocks, int(A.nnz))

    def to_csr(self) -> sp.csr_matrix:
        bh, bw = self.block_shape
        I, K = self.shape
        rows, cols, vals = [], [], []
        n_block_rows, width = self.block_cols.shape
        for br in range(n_block_rows):
            for w in range(width):
                bc = self.block_cols[br, w]
                if bc == PAD_BLOCK:
                    continue
                tile = self.blocks[br, w]
                r, c = np.nonzero(tile)
                rows.append(br * bh + r)
                cols.append(bc * bw + c)
                vals.append(tile[r, c])
        if not rows:
            return sp.csr_matrix(self.shape, dtype=VALUE_DTYPE)
        out = sp.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(max(I, n_block_rows * bh), max(K, (int(self.block_cols.max()) + 1) * bw)),
            dtype=VALUE_DTYPE,
        )
        return sp.csr_matrix(out[:I, :K])

    @property
    def footprint_bytes(self) -> int:
        return self.block_cols.nbytes + self.blocks.nbytes

    @property
    def stored_elements(self) -> int:
        bh, bw = self.block_shape
        real = int(np.count_nonzero(self.block_cols != PAD_BLOCK))
        return real * bh * bw
