"""Memory-transaction and cache models for the simulated GPU.

These helpers translate *logical* access counts (how many words a kernel
touches) into *charged* global-memory bytes, accounting for coalescing,
sector granularity, and an L2-style reuse model for the dense operand ``B``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Size of one 32-bit word in bytes.
WORD_BYTES = 4


def coalesced_bytes(num_words: float, word_bytes: int = WORD_BYTES) -> float:
    """Bytes for a fully coalesced access to ``num_words`` contiguous words."""
    return float(num_words) * word_bytes


def scattered_bytes(
    num_accesses: float,
    word_bytes: int = WORD_BYTES,
    sector_bytes: int = 32,
    locality: float = 0.0,
) -> float:
    """Bytes charged for scattered (gather) accesses.

    Each access to a random location pulls a full ``sector_bytes`` sector.
    ``locality`` in [0, 1] discounts the expansion for partially clustered
    accesses: 0 means fully random (worst case), 1 means the accesses are
    effectively contiguous.
    """
    if not 0.0 <= locality <= 1.0:
        raise ValueError(f"locality must be in [0, 1], got {locality}")
    expansion = sector_bytes / word_bytes
    factor = expansion + (1.0 - expansion) * locality
    return float(num_accesses) * word_bytes * factor


def atomic_store_bytes(num_words: float, word_bytes: int = WORD_BYTES) -> float:
    """Bytes written atomically (the device applies the RMW penalty later)."""
    return float(num_words) * word_bytes


@dataclass(frozen=True)
class CacheModel:
    """L2-style reuse model for the dense matrix ``B`` in SpMM.

    Kernels partition their accesses to ``B`` into *waves*: the set of
    thread blocks co-resident on the device at one time.  Within a wave,
    the first reference to a ``B`` row is a compulsory fetch; further
    references hit on chip with a probability set by how much of the wave's
    working set fits in L2.  Cross-wave reuse is only credited when all of
    ``B`` fits in L2 (then the whole kernel pays ``B`` once).

    The per-wave unique-row counts mirror the ``|set(Ind[i, w])| * J`` term
    of the paper's cost model (Eq. 5-7): CELL's buckets make a wave's
    working set both smaller (similar-length rows) and column-bounded
    (partitioning), which is exactly how the format earns its locality.
    """

    #: L2 capacity the reuse model credits (a V100-class 6 MiB).
    L2_BYTES = 6 * 1024 * 1024
    #: Residual miss rate for re-references whose working set fits in L2
    #: (conflicts, line granularity).
    min_miss: float = 0.08

    def b_traffic_bytes(
        self,
        unique_per_wave: np.ndarray,
        refs_per_wave: np.ndarray,
        J: int,
        num_b_rows: int,
        word_bytes: int = WORD_BYTES,
    ) -> float:
        """Charged bytes for all accesses to ``B``.

        Parameters
        ----------
        unique_per_wave:
            Distinct ``B`` rows referenced in each wave.
        refs_per_wave:
            Total logical row references in each wave (>= unique).
        J:
            Columns of ``B``.
        num_b_rows:
            Rows of ``B`` reachable by this kernel region (the full matrix,
            or one column partition's width for CELL).
        """
        unique = np.asarray(unique_per_wave, dtype=np.float64)
        refs = np.asarray(refs_per_wave, dtype=np.float64)
        if unique.shape != refs.shape:
            raise ValueError("unique_per_wave and refs_per_wave must align")
        if unique.size == 0:
            return 0.0
        row_bytes = float(J) * word_bytes
        total_refs = float(refs.sum())
        b_bytes = float(num_b_rows) * row_bytes
        if b_bytes <= self.L2_BYTES:
            # Whole operand resident: pay it once, re-reference at the floor.
            compulsory = min(float(unique.sum()), float(num_b_rows))
            return (
                compulsory * row_bytes
                + max(0.0, total_refs - compulsory) * row_bytes * self.min_miss
            )
        working_set = unique * row_bytes
        with np.errstate(divide="ignore", invalid="ignore"):
            resident = np.minimum(1.0, self.L2_BYTES / np.maximum(working_set, 1.0))
        miss = self.min_miss + (1.0 - self.min_miss) * (1.0 - resident)
        refetch = np.maximum(0.0, refs - unique)
        charged_rows = unique + refetch * miss
        return float(charged_rows.sum()) * row_bytes
