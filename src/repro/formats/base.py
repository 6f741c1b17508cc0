"""Shared machinery for sparse formats."""

from __future__ import annotations

import abc
from functools import cached_property

import numpy as np
import scipy.sparse as sp

#: Index dtype used by all formats (CUDA kernels use 32-bit indices).
INDEX_DTYPE = np.int32
#: Value dtype used by all formats.
VALUE_DTYPE = np.float32


def ceil_pow2(n: int | np.ndarray) -> int | np.ndarray:
    """Smallest power of two >= ``n`` (n >= 1). Vectorized over arrays."""
    if np.isscalar(n):
        if n < 1:
            raise ValueError(f"ceil_pow2 requires n >= 1, got {n}")
        return 1 << max(0, int(np.ceil(np.log2(n))))
    arr = np.asarray(n)
    if arr.size and arr.min() < 1:
        raise ValueError("ceil_pow2 requires all entries >= 1")
    return (1 << np.ceil(np.log2(arr)).astype(np.int64)).astype(arr.dtype)


def ceil_pow2_exponent(n: int | np.ndarray) -> int | np.ndarray:
    """Exponent ``i`` such that ``2**i`` is the smallest power of two >= n.

    This is the bucket index of the CELL format: a row of length ``l`` lands
    in bucket ``i`` with ``2**(i-1) < l <= 2**i`` (Section 4).
    """
    if np.isscalar(n):
        if n < 1:
            raise ValueError(f"requires n >= 1, got {n}")
        return max(0, int(np.ceil(np.log2(int(n)))))
    arr = np.asarray(n, dtype=np.int64)
    if arr.size and arr.min() < 1:
        raise ValueError("requires all entries >= 1")
    return np.maximum(0, np.ceil(np.log2(arr)).astype(np.int64))


def padding_ratio(stored: int, nnz: int) -> float:
    """Fraction of stored value slots that are zero padding."""
    if stored <= 0:
        return 0.0
    return 1.0 - nnz / stored


def as_csr(matrix: sp.spmatrix | np.ndarray) -> sp.csr_matrix:
    """Canonicalize any input to a deduplicated, sorted float32 CSR matrix."""
    A = sp.csr_matrix(matrix, dtype=VALUE_DTYPE)
    A.sum_duplicates()
    A.sort_indices()
    # Drop explicit zeros so "non-zero count" is meaningful for formats.
    A.eliminate_zeros()
    return A


class SparseFormat(abc.ABC):
    """Abstract base class for all sparse storage formats.

    Subclasses convert from CSR on construction (``from_csr``) and expose:

    * :attr:`shape`, :attr:`nnz` — logical matrix identity;
    * :meth:`to_csr` — lossless round-trip used by tests;
    * :attr:`footprint_bytes` — device bytes occupied by the format arrays;
    * :attr:`stored_elements` — value slots including zero padding;
    * :attr:`padding_ratio` — 1 - nnz / stored_elements.
    """

    shape: tuple[int, int]
    nnz: int

    @classmethod
    @abc.abstractmethod
    def from_csr(cls, A: sp.csr_matrix) -> "SparseFormat":
        """Build the format from a canonical CSR matrix."""

    @abc.abstractmethod
    def to_csr(self) -> sp.csr_matrix:
        """Reconstruct the logical matrix (used to verify losslessness)."""

    @property
    @abc.abstractmethod
    def footprint_bytes(self) -> int:
        """Device memory occupied by the format's arrays."""

    @property
    @abc.abstractmethod
    def stored_elements(self) -> int:
        """Number of value slots stored, including zero padding."""

    @property
    def padding_ratio(self) -> float:
        return padding_ratio(self.stored_elements, self.nnz)

    @cached_property
    def kernel_memo(self) -> dict:
        """``(kernel, J) -> PackedStats`` filled by
        :meth:`repro.kernels.base.SpMMKernel.stats`.  It lives and dies
        with the format (and its re-valued copies), so it grows only with
        the widths a resident plan is launched at."""
        return {}

    @property
    def density(self) -> float:
        rows, cols = self.shape
        denom = rows * cols
        return self.nnz / denom if denom else 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(shape={self.shape}, nnz={self.nnz}, "
            f"padding={self.padding_ratio:.2%})"
        )
