"""The SpMM cost model of Section 5.3 (Eqs. 5-7).

For a bucket ``x`` with width ``W``, ``I1`` bucket rows (folded rows counted
per chunk), ``U = |set(Ind[i, w])|`` distinct column indices, and dense
width ``J``::

    cost(x) = 2 * I1 * W  +  U * J  +  I1 * J          (Eq. 7)

The three terms charge (1) reading the bucket's column indices and values,
(2) fetching the referenced rows of ``B``, and (3) writing the output with
the atomic weight ``Atomic = I1 / I2`` folded in.

Evaluating the cost of a *candidate maximum bucket width* must be cheap —
Algorithm 3 probes O(log W) candidates — so :class:`PartitionCostProfile`
precomputes, per partition, everything needed to answer ``GetAllCost``
(the cost of every candidate cap) in one vectorized pass:

* rows below the cap sit in their natural buckets regardless of the cap
  (a consequence of the folding rule, see :mod:`repro.formats.cell`), so
  their per-bucket ``I1``/``U`` are computed once;
* the cap's bucket always holds *all* rows with natural exponent >= cap,
  whose union column count is a suffix statistic, precomputed for every
  possible cap in one pass.

The profile reads the partition's rows through a
:class:`repro.formats.cell.RowGroups` -- the same grouping the CELL
builder stores -- and :meth:`PartitionCostProfile.cost` is a single entry
of :meth:`PartitionCostProfile.all_costs`, so there is one cost path.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.formats.cell import RowGroups, split_csr


#: Calibrated atomic weight: the device's read-modify-write amplification
#: (Eq. 6 defines ``Atomic`` as the average memory accesses an atomic
#: update costs relative to a plain store; we take the simulated GPU's
#: measured factor instead of the paper's I1/I2 simplification).
DEFAULT_ATOMIC_WEIGHT = 1.8


def bucket_cost(
    I1: int,
    W: int,
    unique_cols: int,
    J: int,
    atomic: bool = False,
    atomic_weight: float = DEFAULT_ATOMIC_WEIGHT,
    zero_rows: int = 0,
) -> float:
    """Eq. 6/7 for one bucket.

    ``atomic`` marks buckets whose output goes through ``atomicAdd``
    (folded rows, or any bucket when the matrix has multiple partitions);
    those pay ``atomic_weight`` per output word plus the zero-initialization
    of their ``zero_rows`` distinct output rows.  With ``atomic=False`` and
    the defaults this reduces exactly to Eq. 7.
    """
    if I1 < 0 or W < 1 or unique_cols < 0 or J < 1:
        raise ValueError(
            f"invalid bucket cost arguments I1={I1}, W={W}, U={unique_cols}, J={J}"
        )
    out_weight = atomic_weight if atomic else 1.0
    zero_cost = float(zero_rows) * J if atomic else 0.0
    return 2.0 * I1 * W + float(unique_cols) * J + out_weight * float(I1) * J + zero_cost


class PartitionCostProfile:
    """Per-partition precomputation for O(1)-ish candidate-cost queries.

    The constructor runs in O(nnz + E·K) with **no** nnz-sized sorts: the
    per-exponent and suffix unique-column counts that previously went
    through ``np.unique`` (an O(nnz log nnz) sort each) are now computed
    with stamp arrays — one pass marks each column with the exponent group
    that touched it, a second records each column's maximum exponent, and
    the suffix counts fall out of a reversed cumulative histogram.
    """

    @classmethod
    def from_cells(
        cls, groups: RowGroups, starts: np.ndarray, indices: np.ndarray
    ) -> "PartitionCostProfile":
        """Build from a partition's row grouping plus per-row ``starts``
        into a shared ``indices`` array — the zero-copy layout of
        :func:`repro.formats.cell.partition_cells`.  The profile keeps no
        reference to ``groups``, which the caller hands on to the builder."""
        self = cls()
        starts = np.asarray(starts, dtype=np.int64)
        rows_s, l_s, exps_s = groups.rows, groups.lengths, groups.exps
        self.num_nonempty_rows = int(rows_s.size)
        self._all_costs_cache: dict[tuple, np.ndarray] = {}
        self.natural_max_exp = E = groups.max_exp

        # --- group stored elements by their row's exponent --------------
        bounds = np.searchsorted(exps_s, np.arange(E + 2))
        row_starts = starts[rows_s]
        within = np.arange(int(l_s.sum())) - np.repeat(np.cumsum(l_s) - l_s, l_s)
        flat_cols = indices[np.repeat(row_starts, l_s) + within].astype(np.int64)
        elem_bounds = np.concatenate([[0], np.cumsum(l_s)])[bounds]

        # --- natural buckets + per-column max exponent via stamping -----
        span = int(flat_cols.max()) + 1 if flat_cols.size else 1
        stamp = np.full(span, -1, dtype=np.int64)
        nat_unique = np.zeros(E + 1, dtype=np.int64)
        for e in range(E + 1):
            lo, hi = elem_bounds[e], elem_bounds[e + 1]
            if lo == hi:
                continue
            # Ascending e: the stamp ends up holding each column's max
            # exponent, and counting fresh stamps gives the group's
            # distinct-column count in O(span) without a sort.
            stamp[flat_cols[lo:hi]] = e
            nat_unique[e] = int(np.count_nonzero(stamp == e))
        self._nat_rows = np.diff(bounds)
        self._nat_unique = nat_unique

        # --- suffix statistics for the cap bucket -----------------------
        # A column is referenced by "rows with exponent >= m" exactly when
        # its max exponent is >= m: a reversed cumulative histogram of the
        # stamp array yields every suffix count at once.
        colmax_hist = np.bincount(stamp[stamp >= 0], minlength=E + 1)
        suffix_unique = np.zeros(E + 2, dtype=np.int64)
        suffix_unique[: E + 1] = np.cumsum(colmax_hist[::-1])[::-1]
        self._suffix_unique = suffix_unique
        self._suffix_rows = rows_s.size - bounds
        self._lengths_desc = l_s[::-1].copy()
        return self

    def cap_bucket_rows(self, max_exp: int) -> int:
        """I1 of the cap bucket: folded chunks of all rows with exp >= cap."""
        if max_exp < 0:
            raise ValueError(f"max_exp must be >= 0, got {max_exp}")
        m = min(max_exp, self.natural_max_exp)
        n_rows = int(self._suffix_rows[m])
        if n_rows == 0:
            return 0
        W = 1 << m
        prefix = self._lengths_desc[:n_rows]
        return int(np.sum(-(-prefix // W)))

    def cap_bucket_unique(self, max_exp: int) -> int:
        """U of the cap bucket: union of columns of rows with exp >= cap."""
        m = min(max_exp, self.natural_max_exp)
        return int(self._suffix_unique[m])

    def cap_bucket_output_rows(self, max_exp: int) -> int:
        """I2 of the cap bucket: distinct output rows it writes."""
        m = min(max_exp, self.natural_max_exp)
        return int(self._suffix_rows[m])

    def cost(
        self,
        max_exp: int,
        J: int,
        num_partitions: int = 1,
        atomic_weight: float = DEFAULT_ATOMIC_WEIGHT,
        legacy_eq7: bool = False,
    ) -> float:
        """Total cost of this partition under the given width cap: the
        ``max_exp`` entry of :meth:`all_costs` (caps beyond the natural
        maximum cost what the natural maximum costs)."""
        if max_exp < 0:
            raise ValueError(f"max_exp must be >= 0, got {max_exp}")
        costs = self.all_costs(J, num_partitions, atomic_weight, legacy_eq7)
        return float(costs[min(max_exp, self.natural_max_exp)])

    def all_costs(
        self,
        J: int,
        num_partitions: int = 1,
        atomic_weight: float = DEFAULT_ATOMIC_WEIGHT,
        legacy_eq7: bool = False,
    ) -> np.ndarray:
        """``GetAllCost``: the cost of **every** candidate cap at once.

        Returns an array ``c`` with ``c[m]`` the cost of cap ``2**m`` for
        ``m = 0..natural_max_exp``.  By default uses the atomic-aware Eq. 6
        form (the cap bucket's folded rows, and every bucket when
        ``num_partitions > 1``, pay the calibrated atomic weight plus
        zero-initialization); ``legacy_eq7=True`` gives the paper's
        simplified Eq. 7, kept for the cost-model ablation benchmark.  One
        vectorized pass over the precomputed histograms: a prefix cumsum
        over the natural buckets plus a 2-D ceil-division for the cap
        bucket's folded row counts.  ``TuneWidth``/the exhaustive sweep
        read from this array.  Results are cached per
        ``(J, num_partitions, atomic_weight, legacy_eq7)``.
        """
        if J < 1:
            raise ValueError(f"J must be >= 1, got {J}")
        key = (J, num_partitions, atomic_weight, legacy_eq7)
        cached = self._all_costs_cache.get(key)
        if cached is not None:
            return cached
        E = self.natural_max_exp
        multi = num_partitions > 1 and not legacy_eq7
        e = np.arange(E + 1)
        W = (1 << e).astype(np.float64)
        I1 = self._nat_rows.astype(np.float64)
        U = self._nat_unique.astype(np.float64)
        out_weight = atomic_weight if multi else 1.0
        zero_cost = I1 * float(J) if multi else np.zeros(E + 1)
        # Same operation order as bucket_cost, and the cumsum below the same
        # ascending-e accumulation, as the scalar loop of the reference
        # profile (repro.bench.reference), so the costs stay bit-identical.
        nat = 2.0 * I1 * W + U * float(J) + out_weight * I1 * float(J) + zero_cost
        nat[self._nat_rows == 0] = 0.0
        prefix = np.concatenate([[0.0], np.cumsum(nat)])
        # Cap bucket at each m: rows with exponent >= m fold at width 2^m.
        n_rows = self._suffix_rows[: E + 1]
        widths = (1 << e).astype(np.int64)
        ceil_div = -(-self._lengths_desc[None, :] // widths[:, None])
        csum = np.concatenate(
            [np.zeros((E + 1, 1), dtype=np.int64), np.cumsum(ceil_div, axis=1)],
            axis=1,
        )
        cap_I1 = csum[e, n_rows].astype(np.float64)
        cap_U = self._suffix_unique[: E + 1].astype(np.float64)
        atomic = ((e < E) | multi) & (not legacy_eq7)
        cap_weight = np.where(atomic, atomic_weight, 1.0)
        cap_zero = np.where(atomic, n_rows.astype(np.float64) * float(J), 0.0)
        cap = 2.0 * cap_I1 * W + cap_U * float(J) + cap_weight * cap_I1 * float(J) + cap_zero
        cap[cap_I1 == 0] = 0.0
        out = prefix[: E + 1] + cap
        self._all_costs_cache[key] = out
        return out

    def bucket_summary(self, max_exp: int) -> list[tuple[int, int, int]]:
        """(width, I1, unique) per bucket under the given cap — for tests."""
        max_exp = min(max_exp, self.natural_max_exp)
        out = [
            (1 << e, int(self._nat_rows[e]), int(self._nat_unique[e]))
            for e in range(max_exp)
            if self._nat_rows[e]
        ]
        I1 = self.cap_bucket_rows(max_exp)
        if I1:
            out.append((1 << max_exp, I1, self.cap_bucket_unique(max_exp)))
        return out


def matrix_cost_profiles(
    A: sp.csr_matrix,
    num_partitions: int,
    cells: tuple[sp.csr_matrix, list[tuple[int, int]], np.ndarray, np.ndarray]
    | None = None,
) -> list[PartitionCostProfile]:
    """Build one cost profile per column partition of ``A``.

    All partitions are carved out of the parent CSR arrays in one
    :func:`repro.formats.cell.split_csr` pass — the profiles gather
    straight from ``A.indices`` instead of materializing
    ``csc[:, c0:c1].tocsr()`` slices per partition.  Pass a precomputed
    ``cells`` split to share it with :meth:`CELLFormat.from_csr`.
    """
    if cells is None:
        cells = split_csr(A, num_partitions)
    bounds = cells[1]
    if len(bounds) != num_partitions:
        raise ValueError(
            f"cells was split into {len(bounds)} partitions, "
            f"expected {num_partitions}"
        )
    return [partition_profile(cells, p) for p in range(len(bounds))]


def partition_profile(
    cells: tuple[sp.csr_matrix, list[tuple[int, int]], np.ndarray, np.ndarray],
    p: int,
) -> PartitionCostProfile:
    """Cost profile of one partition of a :func:`split_csr` result.

    The unit the compose fan-out and ``patch_rows`` rebuild independently —
    partition ``p``'s profile reads only column ``p`` of the cells arrays
    plus the shared parent ``indices``, never its siblings.
    """
    A, bounds, counts, starts = cells
    if not 0 <= p < len(bounds):
        raise ValueError(f"partition index {p} out of range [0, {len(bounds)})")
    return PartitionCostProfile.from_cells(
        RowGroups.from_lengths(counts[:, p]), starts[:, p], A.indices
    )


def total_cost(profiles: list[PartitionCostProfile], max_exps: list[int], J: int) -> float:
    """Eq. 7 summed over all partitions with per-partition caps."""
    if len(profiles) != len(max_exps):
        raise ValueError("profiles and max_exps must align")
    return float(sum(p.cost(m, J) for p, m in zip(profiles, max_exps)))
