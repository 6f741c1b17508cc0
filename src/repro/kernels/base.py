"""Kernel abstraction and shared statistics helpers."""

from __future__ import annotations

import abc

import numpy as np
import scipy.sparse as sp

from repro.formats.base import SparseFormat, VALUE_DTYPE
from repro.gpu.device import SimulatedDevice
from repro.gpu.memory import CacheModel
from repro.gpu.stats import KernelStats, Measurement, PackedStats

#: Bytes per 32-bit word.
WORD = 4


def spmm_reference(A: sp.csr_matrix, B: np.ndarray) -> np.ndarray:
    """Ground-truth C = A @ B used to verify every kernel's result."""
    B = np.asarray(B, dtype=VALUE_DTYPE)
    return np.asarray(A @ B, dtype=VALUE_DTYPE)


def check_dense_operand(B: np.ndarray, K: int) -> np.ndarray:
    """Validate and canonicalize the dense operand of SpMM."""
    B = np.ascontiguousarray(B, dtype=VALUE_DTYPE)
    if B.ndim != 2:
        raise ValueError(f"B must be 2-D, got shape {B.shape}")
    if B.shape[0] != K:
        raise ValueError(f"B has {B.shape[0]} rows, expected {K}")
    return B


#: Number of co-resident thread blocks assumed by kernels when forming L2
#: reuse waves (the V100's 80 SMs x 8 resident blocks).
WAVE_BLOCKS = 640


#: Largest stamp, in cells per stored element, that :func:`wave_unique_refs`
#: marks before it falls back to sorting the (wave, column) keys.
STAMP_CELLS_PER_NNZ = 16


def wave_unique_refs(
    indptr: np.ndarray, indices: np.ndarray, rows_per_wave: int, num_cols: int
) -> tuple[np.ndarray, np.ndarray]:
    """Distinct and total column references per wave of CSR rows.

    A *wave* is a group of ``rows_per_wave`` consecutive rows whose thread
    blocks are co-resident on the device.  Waves whose rows share
    neighbors fetch fewer rows of ``B`` — the locality signal the cache
    model consumes.  Each wave's references are the nnz range ``indptr``
    gives it.  Distinct ones are counted with a dense marker array: the
    (wave, column) pairs are marked in a boolean ``n_waves x num_cols``
    stamp and the marks are counted per wave, in O(nnz + stamp).  When the
    stamp would exceed ``STAMP_CELLS_PER_NNZ`` cells per reference (many
    short waves over many columns) the pairs are sorted instead, in
    O(nnz log nnz).  Both paths give equal counts.
    """
    n_rows = indptr.size - 1
    if n_rows == 0 or indices.size == 0:
        z = np.zeros(0, dtype=np.int64)
        return z, z
    rows_per_wave = max(1, int(rows_per_wave))
    n_waves = -(-n_rows // rows_per_wave)
    edges = np.minimum(np.arange(n_waves + 1, dtype=np.int64) * rows_per_wave, n_rows)
    refs = np.diff(indptr[edges]).astype(np.int64)
    if n_waves == 1:
        keys = indices
    else:
        base = np.arange(0, n_waves * num_cols, num_cols, dtype=np.int64)
        keys = np.repeat(base, refs) + indices
    return distinct_per_group(keys, n_waves, num_cols), refs


def distinct_per_group(keys: np.ndarray, n_groups: int, num_cols: int) -> np.ndarray:
    """Distinct columns per group, from ``keys = group * num_cols + column``:
    counted on a dense marker stamp, or by a sort when the stamp would
    exceed ``STAMP_CELLS_PER_NNZ`` cells per key."""
    if n_groups * num_cols <= STAMP_CELLS_PER_NNZ * keys.size:
        marks = np.zeros(n_groups * num_cols, dtype=bool)
        marks[keys] = True
        unique = np.count_nonzero(marks.reshape(n_groups, num_cols), axis=1)
    else:
        uniq = np.unique(keys) // np.int64(num_cols)
        unique = np.bincount(uniq.astype(np.int64), minlength=n_groups)
    return unique.astype(np.int64)


def operand_footprint(format_bytes: float, K: int, I: int, J: int) -> float:
    """Device-resident bytes: format arrays + dense B + dense C."""
    return float(format_bytes) + (K + I) * J * WORD


class SpMMKernel(abc.ABC):
    """A GPU SpMM kernel: numeric execution + structural cost statistics.

    Subclasses implement :meth:`plan` (emit :class:`KernelStats` for a given
    format and dense width ``J``) and :meth:`execute` (compute ``C``
    numerically from the format's own arrays).  :meth:`run` combines both on
    a :class:`SimulatedDevice`; it and :meth:`measure` take their stats from
    :meth:`stats`, which plans each ``(kernel, format, J)`` once.
    """

    #: Human-readable kernel name (system whose strategy it reproduces).
    name: str = "abstract"
    #: L2 reuse model of the kernel's gathers of the dense operand.
    CACHE = CacheModel()

    @abc.abstractmethod
    def plan(self, fmt: SparseFormat, J: int) -> KernelStats:
        """Derive the structural work statistics for ``C = A @ B``."""

    @abc.abstractmethod
    def execute(self, fmt: SparseFormat, B: np.ndarray) -> np.ndarray:
        """Compute the numeric result from the format's arrays."""

    def __eq__(self, other: object) -> bool:
        """Kernels of one class and configuration are interchangeable, so
        the instances a caller builds afresh share their memo entries."""
        return type(other) is type(self) and vars(other) == vars(self)

    def __hash__(self) -> int:
        return hash((type(self), *sorted(vars(self).items())))

    def stats(self, fmt: SparseFormat, J: int) -> KernelStats:
        """:meth:`plan`, memoized on the format per ``(kernel, J)``.

        Stats depend only on the format's structure, the kernel's
        configuration and ``J``, and built formats are never written in
        place, so a reused plan pays for :meth:`plan` at most twice.  A
        re-valued CELL format shares its structure's memo, so a pattern
        does too.  The record is kept (packed) from the second call on, so
        a plan launched once, such as a cache entry never hit, carries no
        memo.  Every call hands out an equal, immutable record; those of
        one memo entry share one timing memo.
        """
        key = (self, int(J))
        memo = fmt.kernel_memo
        packed = memo.get(key)
        if packed is not None:
            return packed.unpack()
        stats = self.plan(fmt, key[1])
        memo[key] = PackedStats(stats) if key in memo else None
        return stats

    def run(
        self, fmt: SparseFormat, B: np.ndarray, device: SimulatedDevice
    ) -> tuple[np.ndarray, Measurement]:
        """Execute numerically and measure on the simulated device."""
        measurement = device.measure(self.stats(fmt, B.shape[1]))
        C = self.execute(fmt, B)
        return C, measurement

    def measure(self, fmt: SparseFormat, J: int, device: SimulatedDevice) -> Measurement:
        """Timing-only path (no numeric execution) for tuners and sweeps."""
        return device.measure(self.stats(fmt, J))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"
