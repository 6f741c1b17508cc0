"""Compressed Sparse Row (CSR) format."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.formats.base import INDEX_DTYPE, VALUE_DTYPE, SparseFormat


class CSRFormat(SparseFormat):
    """CSR: row-pointer array + column indices + values (Algorithm 1).

    The fixed element-wise format used by cuSPARSE, Sputnik, dgSPARSE and
    TACO in the paper's evaluation.
    """

    def __init__(self, shape: tuple[int, int], indptr: np.ndarray, indices: np.ndarray, data: np.ndarray):
        self.shape = (int(shape[0]), int(shape[1]))
        self.indptr = np.ascontiguousarray(indptr, dtype=INDEX_DTYPE)
        self.indices = np.ascontiguousarray(indices, dtype=INDEX_DTYPE)
        self.data = np.ascontiguousarray(data, dtype=VALUE_DTYPE)
        if self.indptr.size != self.shape[0] + 1:
            raise ValueError(
                f"indptr length {self.indptr.size} != rows + 1 = {self.shape[0] + 1}"
            )
        if self.indices.shape != self.data.shape:
            raise ValueError("indices and data must have identical shapes")
        self.nnz = int(self.data.size)

    @classmethod
    def from_csr(cls, A: sp.csr_matrix) -> "CSRFormat":
        return cls(A.shape, A.indptr, A.indices, A.data)

    def to_csr(self) -> sp.csr_matrix:
        return sp.csr_matrix(
            (self.data, self.indices, self.indptr), shape=self.shape, dtype=VALUE_DTYPE
        )

    @property
    def row_lengths(self) -> np.ndarray:
        """Number of stored elements per row."""
        return np.diff(self.indptr).astype(np.int64)

    @property
    def footprint_bytes(self) -> int:
        return self.indptr.nbytes + self.indices.nbytes + self.data.nbytes

    @property
    def stored_elements(self) -> int:
        return self.nnz
