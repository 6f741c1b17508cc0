"""Sliced Ellpack (SELL): per-slice widths over fixed row slices."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.formats.base import INDEX_DTYPE, VALUE_DTYPE, SparseFormat
from repro.formats.ell import PAD, pack_rows_ell


@dataclass
class Slice:
    """One contiguous group of rows padded to the slice-local max width."""

    row_start: int
    col: np.ndarray  # (rows_in_slice, width) int32, PAD marks padding
    val: np.ndarray  # (rows_in_slice, width) float32

    @property
    def width(self) -> int:
        return int(self.col.shape[1])

    @property
    def num_rows(self) -> int:
        return int(self.col.shape[0])


class SlicedELLFormat(SparseFormat):
    """SELL [Monakov et al.]: rows sliced in groups of ``slice_height``.

    Each slice is an independent ELL sub-matrix whose width is the max row
    length *within the slice*, bounding the padding a single long row causes
    to its own slice.  Precursor of the CELL bucket idea.
    """

    def __init__(self, shape: tuple[int, int], slices: list[Slice]):
        self.shape = (int(shape[0]), int(shape[1]))
        self.slices = slices
        self.nnz = int(sum(np.count_nonzero(s.col != PAD) for s in slices))

    @classmethod
    def from_csr(cls, A: sp.csr_matrix, slice_height: int = 32) -> "SlicedELLFormat":
        if slice_height < 1:
            raise ValueError(f"slice_height must be >= 1, got {slice_height}")
        I = A.shape[0]
        lengths = np.diff(A.indptr).astype(np.int64)
        slices: list[Slice] = []
        for start in range(0, I, slice_height):
            rows = np.arange(start, min(start + slice_height, I))
            width = int(lengths[rows].max()) if rows.size else 0
            col, val = pack_rows_ell(A, max(width, 1), rows=rows)
            slices.append(Slice(row_start=start, col=col, val=val))
        return cls(A.shape, slices)

    def to_csr(self) -> sp.csr_matrix:
        rows_list, cols_list, vals_list = [], [], []
        for s in self.slices:
            mask = s.col != PAD
            local_rows = np.nonzero(mask)[0]
            rows_list.append((local_rows + s.row_start).astype(INDEX_DTYPE))
            cols_list.append(s.col[mask])
            vals_list.append(s.val[mask])
        if not rows_list:
            return sp.csr_matrix(self.shape, dtype=VALUE_DTYPE)
        return sp.csr_matrix(
            (
                np.concatenate(vals_list),
                (np.concatenate(rows_list), np.concatenate(cols_list)),
            ),
            shape=self.shape,
            dtype=VALUE_DTYPE,
        )

    @property
    def footprint_bytes(self) -> int:
        return int(sum(s.col.nbytes + s.val.nbytes for s in self.slices))

    @property
    def stored_elements(self) -> int:
        return int(sum(s.col.size for s in self.slices))
