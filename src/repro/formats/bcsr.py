"""Block Compressed Sparse Row (BCSR / BSR) format."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.formats.base import INDEX_DTYPE, VALUE_DTYPE, SparseFormat


class BCSRFormat(SparseFormat):
    """BCSR: the matrix is tiled into ``block_shape`` dense blocks.

    Any tile containing at least one non-zero is stored as a full dense
    block (zero-padded).  This is the blockwise fixed format the paper's
    selection model compares CELL against, and the representation behind
    Triton's block-sparse kernels; on very sparse irregular matrices its
    padding ratio approaches 99% and the footprint blows up by >60x
    (Section 2.1).
    """

    def __init__(
        self,
        shape: tuple[int, int],
        block_shape: tuple[int, int],
        indptr: np.ndarray,
        indices: np.ndarray,
        blocks: np.ndarray,
        nnz: int,
    ):
        self.shape = (int(shape[0]), int(shape[1]))
        self.block_shape = (int(block_shape[0]), int(block_shape[1]))
        self.indptr = np.ascontiguousarray(indptr, dtype=INDEX_DTYPE)
        self.indices = np.ascontiguousarray(indices, dtype=INDEX_DTYPE)
        self.blocks = np.ascontiguousarray(blocks, dtype=VALUE_DTYPE)
        if self.blocks.ndim != 3 or self.blocks.shape[1:] != self.block_shape:
            raise ValueError(
                f"blocks must be (nblocks, {self.block_shape[0]}, {self.block_shape[1]})"
            )
        self.nnz = int(nnz)

    @classmethod
    def from_csr(cls, A: sp.csr_matrix, block_shape: tuple[int, int] = (8, 8)) -> "BCSRFormat":
        bh, bw = block_shape
        if bh < 1 or bw < 1:
            raise ValueError(f"block_shape entries must be >= 1, got {block_shape}")
        I, K = A.shape
        # Pad logical dimensions to block multiples before conversion.
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
        return cls(
            shape=(I, K),
            block_shape=(bh, bw),
            indptr=bsr.indptr,
            indices=bsr.indices,
            blocks=bsr.data,
            nnz=int(A.nnz),
        )

    @property
    def num_blocks(self) -> int:
        return int(self.blocks.shape[0])

    @property
    def num_block_rows(self) -> int:
        return int(self.indptr.size - 1)

    def to_csr(self) -> sp.csr_matrix:
        bh, bw = self.block_shape
        I, K = self.shape
        padded_rows = self.num_block_rows * bh
        padded_cols = (int(self.indices.max()) + 1) * bw if self.indices.size else K
        padded_cols = max(padded_cols, K)
        bsr = sp.bsr_matrix(
            (self.blocks, self.indices, self.indptr),
            shape=(padded_rows, padded_cols),
        )
        out = bsr.tocsr()[:I, :K].astype(VALUE_DTYPE)
        out.eliminate_zeros()
        return out

    @property
    def footprint_bytes(self) -> int:
        return self.indptr.nbytes + self.indices.nbytes + self.blocks.nbytes

    @property
    def stored_elements(self) -> int:
        bh, bw = self.block_shape
        return self.num_blocks * bh * bw
