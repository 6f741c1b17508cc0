"""Ellpack (ELL) format: fixed-width padded rows (Figure 1)."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.formats.base import INDEX_DTYPE, VALUE_DTYPE, SparseFormat

#: Column-index sentinel marking zero padding.
PAD = INDEX_DTYPE(-1)


def pack_rows_ell(
    A: sp.csr_matrix, width: int, rows: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Pack (a subset of) CSR rows into dense ``(R, width)`` ELL arrays.

    Non-zeros are packed to the left; remaining slots get column ``PAD`` and
    value 0.  Rows longer than ``width`` are rejected (callers that fold
    long rows must pre-split them).
    Returns ``(colInd, val)``.
    """
    if rows is None:
        rows = np.arange(A.shape[0])
    rows = np.asarray(rows)
    lengths = (A.indptr[rows + 1] - A.indptr[rows]).astype(np.int64)
    if lengths.size and lengths.max() > width:
        raise ValueError(
            f"row of length {int(lengths.max())} does not fit ELL width {width}"
        )
    R = rows.size
    col = np.full((R, width), PAD, dtype=INDEX_DTYPE)
    val = np.zeros((R, width), dtype=VALUE_DTYPE)
    if R == 0 or lengths.sum() == 0:
        return col, val
    # Flat destination offsets: element e of packed row r goes to r*width + e.
    starts = A.indptr[rows].astype(np.int64)
    # within-row positions 0..len-1 for each source element
    within = np.arange(int(lengths.sum())) - np.repeat(
        np.cumsum(lengths) - lengths, lengths
    )
    src = np.repeat(starts, lengths) + within
    dst_row = np.repeat(np.arange(R), lengths)
    flat = dst_row * width + within
    col.ravel()[flat] = A.indices[src]
    val.ravel()[flat] = A.data[src]
    return col, val


class ELLFormat(SparseFormat):
    """Classic Ellpack: every row padded to the maximum row length.

    A single long row inflates the whole structure — the pathology that
    motivates slicing, bucketing and, ultimately, CELL.
    """

    def __init__(self, shape: tuple[int, int], col: np.ndarray, val: np.ndarray):
        self.shape = (int(shape[0]), int(shape[1]))
        self.col = np.ascontiguousarray(col, dtype=INDEX_DTYPE)
        self.val = np.ascontiguousarray(val, dtype=VALUE_DTYPE)
        if self.col.shape != self.val.shape or self.col.ndim != 2:
            raise ValueError("col and val must be identical 2-D arrays")
        if self.col.shape[0] != self.shape[0]:
            raise ValueError("ELL arrays must have one row per matrix row")
        self.nnz = int(np.count_nonzero(self.col != PAD))

    @classmethod
    def from_csr(cls, A: sp.csr_matrix) -> "ELLFormat":
        lengths = np.diff(A.indptr)
        width = int(lengths.max()) if lengths.size else 0
        col, val = pack_rows_ell(A, max(width, 1) if A.shape[0] else 0)
        return cls(A.shape, col, val)

    @property
    def width(self) -> int:
        return int(self.col.shape[1])

    def to_csr(self) -> sp.csr_matrix:
        mask = self.col != PAD
        rows = np.nonzero(mask)[0].astype(INDEX_DTYPE)
        return sp.csr_matrix(
            (self.val[mask], (rows, self.col[mask])),
            shape=self.shape,
            dtype=VALUE_DTYPE,
        )

    @property
    def footprint_bytes(self) -> int:
        return self.col.nbytes + self.val.nbytes

    @property
    def stored_elements(self) -> int:
        return int(self.col.size)
