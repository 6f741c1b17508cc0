"""Coordinate (COO) format: explicit (row, col, value) triples."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.formats.base import INDEX_DTYPE, VALUE_DTYPE, SparseFormat


class COOFormat(SparseFormat):
    """COO stores every non-zero with its full coordinates.

    Row indices repeat for entries in the same row (the redundancy CSR
    removes); kept here as the simplest element-wise baseline format.
    """

    def __init__(self, shape: tuple[int, int], row: np.ndarray, col: np.ndarray, val: np.ndarray):
        self.shape = (int(shape[0]), int(shape[1]))
        self.row = np.ascontiguousarray(row, dtype=INDEX_DTYPE)
        self.col = np.ascontiguousarray(col, dtype=INDEX_DTYPE)
        self.val = np.ascontiguousarray(val, dtype=VALUE_DTYPE)
        if not (self.row.shape == self.col.shape == self.val.shape):
            raise ValueError("row/col/val must have identical shapes")
        self.nnz = int(self.val.size)

    @classmethod
    def from_csr(cls, A: sp.csr_matrix) -> "COOFormat":
        coo = A.tocoo()
        return cls(A.shape, coo.row, coo.col, coo.data)

    def to_csr(self) -> sp.csr_matrix:
        return sp.csr_matrix(
            (self.val, (self.row, self.col)), shape=self.shape, dtype=VALUE_DTYPE
        )

    @property
    def footprint_bytes(self) -> int:
        return self.row.nbytes + self.col.nbytes + self.val.nbytes

    @property
    def stored_elements(self) -> int:
        return self.nnz
