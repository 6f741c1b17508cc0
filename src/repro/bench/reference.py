"""Reference (pre-vectorization) compose implementations.

These are the scipy-slicing code paths that ``CELLFormat.from_csr``,
``matrix_cost_profiles`` and ``build_buckets`` used before the bulk-NumPy
rewrite.  They are kept verbatim for two consumers:

* the equivalence tests, which assert the vectorized paths produce
  **bit-identical** CELL structures and costs; and
* :mod:`repro.bench.regress`, whose ``compose.speedup_vs_reference``
  metric times the vectorized pipeline against this one — a
  machine-relative ratio that survives CI-runner speed differences.

The CELL builder still fills padded ``col``/``val`` arrays per bucket
(:class:`PaddedBucket`, the layout buckets once stored), strips the padding
only at the end and then stacks the buckets into the partition's
fold-rank-ordered slab; the equivalence tests also check the padding
formulas of :class:`~repro.formats.cell.Bucket` against those arrays.

Do not "optimize" this module; its value is staying byte-for-byte
faithful to the historical behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.core.cost_model import DEFAULT_ATOMIC_WEIGHT, bucket_cost
from repro.formats.base import INDEX_DTYPE, VALUE_DTYPE, ceil_pow2_exponent
from repro.formats.cell import CELLFormat, Partition, partition_bounds
from repro.formats.ell import PAD


# ----------------------------------------------------------------------
# CELL construction (old per-partition scipy CSC slicing, padded arrays)
# ----------------------------------------------------------------------
def _fold_chunks(
    lengths: np.ndarray, max_width: int | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Split row lengths into bucket chunks under the folding rule.

    Returns per-chunk arrays ``(row, offset, length, exponent)``, rows in
    ascending order, where ``offset`` is the chunk's element offset inside
    its source row and ``exponent`` gives the destination bucket width
    ``2**exponent``.
    """
    rows = np.nonzero(lengths > 0)[0]
    l = lengths[rows].astype(np.int64)
    if rows.size == 0:
        z = np.zeros(0, dtype=np.int64)
        return z, z, z, z
    natural_exp = ceil_pow2_exponent(l)
    if max_width is None:
        max_exp = int(natural_exp.max())
        max_width = 1 << max_exp
    else:
        if max_width < 1 or (max_width & (max_width - 1)):
            raise ValueError(f"max_width must be a power of two, got {max_width}")
        max_exp = int(np.log2(max_width))
    W = max_width
    n_chunks = np.where(l <= W, 1, -(-l // W))
    total = int(n_chunks.sum())
    chunk_row = np.repeat(rows, n_chunks)
    first = np.cumsum(n_chunks) - n_chunks
    pos = np.arange(total) - np.repeat(first, n_chunks)
    l_rep = np.repeat(l, n_chunks)
    # Chunks of a folded row all go to the max bucket; the last chunk holds
    # the remainder and is padded to W.
    chunk_len = np.minimum(l_rep - pos * W, W)
    chunk_off = pos * W
    exp_rep = np.repeat(np.minimum(natural_exp, max_exp), n_chunks)
    return chunk_row, chunk_off, chunk_len, exp_rep


@dataclass
class PaddedBucket:
    """A bucket as the padded builder stores it: ``col``/``val`` of shape
    ``(num_rows, width)``, ``PAD`` (-1) marking the zero padding."""

    width: int
    row_ind: np.ndarray
    col: np.ndarray
    val: np.ndarray
    has_folds: bool
    block_rows: int

    def strip(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The bucket without its pads: per-row entry counts, then the
        columns and values of the entries in stored order."""
        mask = self.col != PAD
        return mask.sum(axis=1), self.col[mask], self.val[mask]


def _stack_partition(
    index: int,
    col_start: int,
    col_end: int,
    padded: list[PaddedBucket],
    num_cols: int,
    block_multiple: int,
) -> Partition:
    """Stack stripped buckets in bucket order, then move the rows into the
    slab's fold-rank order (a chunk's rank is its position among its row's
    neighbouring chunks)."""
    if not padded:
        rows = np.zeros(0, dtype=INDEX_DTYPE)
        empty = sp.csr_matrix((0, num_cols), dtype=VALUE_DTYPE)
        return Partition.from_slab(
            index, col_start, col_end, empty, rows, rows, rows, block_multiple
        )
    rows = np.concatenate([b.row_ind for b in padded])
    exps = np.concatenate(
        [np.full(b.row_ind.size, int(np.log2(b.width))) for b in padded]
    )
    lens, cols, vals = (np.concatenate(x) for x in zip(*(b.strip() for b in padded)))
    indptr = np.zeros(rows.size + 1, dtype=INDEX_DTYPE)
    np.cumsum(lens, out=indptr[1:])
    pos = np.arange(rows.size)
    first = np.ones(rows.size, dtype=bool)
    first[1:] = rows[1:] != rows[:-1]
    rank = pos - np.maximum.accumulate(np.where(first, pos, 0))
    order = np.argsort(rank, kind="stable")
    slab = sp.csr_matrix((vals, cols, indptr), shape=(rows.size, num_cols))[order]
    return Partition.from_slab(
        index, col_start, col_end, slab, rows[order], rank[order], exps[order],
        block_multiple,
    )


def _reference_partition_buckets(
    sub: sp.csr_matrix, col_offset: int, max_width: int | None, block_multiple: int
) -> list[PaddedBucket]:
    lengths = np.diff(sub.indptr).astype(np.int64)
    chunk_row, chunk_off, chunk_len, chunk_exp = _fold_chunks(lengths, max_width)
    if chunk_row.size == 0:
        return []
    max_exp = int(chunk_exp.max())
    partition_max_width = 1 << max_exp
    block_nnz = block_multiple * partition_max_width
    order = np.argsort(chunk_exp, kind="stable")
    chunk_row = chunk_row[order]
    chunk_off = chunk_off[order]
    chunk_len = chunk_len[order]
    chunk_exp = chunk_exp[order]
    buckets: list[PaddedBucket] = []
    boundaries = np.searchsorted(chunk_exp, np.arange(max_exp + 2))
    indptr = sub.indptr.astype(np.int64)
    for e in range(max_exp + 1):
        lo, hi = boundaries[e], boundaries[e + 1]
        if lo == hi:
            continue
        width = 1 << e
        rows = chunk_row[lo:hi]
        offs = chunk_off[lo:hi]
        lens = chunk_len[lo:hi]
        R = rows.size
        col = np.full((R, width), PAD, dtype=INDEX_DTYPE)
        val = np.zeros((R, width), dtype=VALUE_DTYPE)
        total = int(lens.sum())
        if total:
            starts = indptr[rows] + offs
            within = np.arange(total) - np.repeat(np.cumsum(lens) - lens, lens)
            src = np.repeat(starts, lens) + within
            dst = np.repeat(np.arange(R, dtype=np.int64), lens) * width + within
            col.ravel()[dst] = sub.indices[src] + col_offset
            val.ravel()[dst] = sub.data[src]
        buckets.append(
            PaddedBucket(
                width=width,
                row_ind=rows.astype(INDEX_DTYPE),
                col=col,
                val=val,
                # a folded row's second chunk starts past offset 0
                has_folds=bool((offs > 0).any()),
                block_rows=max(1, block_nnz // width),
            )
        )
    return buckets


def reference_padded_partitions(
    A: sp.csr_matrix,
    num_partitions: int = 1,
    max_widths: int | list[int | None] | None = None,
    block_multiple: int = 2,
) -> list[tuple[int, int, list[PaddedBucket]]]:
    """The pre-vectorization ``CELLFormat.from_csr`` with padded buckets:
    one scipy ``csc[:, c0:c1].tocsr()`` slice per partition.  Returns
    ``(col_start, col_end, buckets)`` per partition."""
    if block_multiple < 1 or (block_multiple & (block_multiple - 1)):
        raise ValueError(f"block_multiple must be a power of two, got {block_multiple}")
    bounds = partition_bounds(A.shape[1], num_partitions)
    if max_widths is None or isinstance(max_widths, (int, np.integer)):
        width_caps: list[int | None] = [max_widths] * num_partitions  # type: ignore[list-item]
    else:
        width_caps = list(max_widths)
        if len(width_caps) != num_partitions:
            raise ValueError(
                f"max_widths has {len(width_caps)} entries for {num_partitions} partitions"
            )
    csc = A.tocsc() if num_partitions > 1 else None
    partitions = []
    for p, (c0, c1) in enumerate(bounds):
        if csc is not None:
            sub = csc[:, c0:c1].tocsr()
        else:
            sub = A
        buckets = _reference_partition_buckets(
            sub, col_offset=c0, max_width=width_caps[p], block_multiple=block_multiple
        )
        partitions.append((c0, c1, buckets))
    return partitions


def reference_cell_from_csr(
    A: sp.csr_matrix,
    num_partitions: int = 1,
    max_widths: int | list[int | None] | None = None,
    block_multiple: int = 2,
) -> CELLFormat:
    """:func:`reference_padded_partitions` with each bucket's padding
    stripped at the end and the buckets stacked into one slab."""
    partitions = [
        _stack_partition(p, c0, c1, padded, A.shape[1], block_multiple)
        for p, (c0, c1, padded) in enumerate(
            reference_padded_partitions(A, num_partitions, max_widths, block_multiple)
        )
    ]
    return CELLFormat(A.shape, partitions, int(A.nnz))


# ----------------------------------------------------------------------
# Cost profile (old per-partition np.unique sorts + scalar cost loop)
# ----------------------------------------------------------------------
class ReferencePartitionCostProfile:
    """The pre-vectorization :class:`repro.core.cost_model.PartitionCostProfile`."""

    def __init__(self, lengths: np.ndarray, indptr: np.ndarray, indices: np.ndarray):
        lengths = np.asarray(lengths, dtype=np.int64)
        rows = np.nonzero(lengths > 0)[0]
        self.num_nonempty_rows = int(rows.size)
        if rows.size == 0:
            self.natural_max_exp = 0
            self._naturals: dict[int, tuple[int, int]] = {}
            self._suffix_unique = np.zeros(1, dtype=np.int64)
            self._suffix_rows = np.zeros(1, dtype=np.int64)
            self._lengths_desc = np.zeros(0, dtype=np.int64)
            return
        l = lengths[rows]
        exps = ceil_pow2_exponent(l)
        self.natural_max_exp = int(exps.max())
        E = self.natural_max_exp

        order = np.argsort(exps, kind="stable")
        rows_s, exps_s, l_s = rows[order], exps[order], l[order]
        bounds = np.searchsorted(exps_s, np.arange(E + 2))
        span = np.int64(indices.max()) + 1 if indices.size else np.int64(1)
        starts = indptr[rows_s].astype(np.int64)
        within = np.arange(int(l_s.sum())) - np.repeat(np.cumsum(l_s) - l_s, l_s)
        flat_cols = indices[np.repeat(starts, l_s) + within].astype(np.int64)
        flat_exp = np.repeat(exps_s, l_s)
        uniq_keys = np.unique(flat_exp * span + flat_cols)
        per_exp_unique = np.bincount(
            (uniq_keys // span).astype(np.int64), minlength=E + 1
        )
        self._naturals = {
            e: (int(bounds[e + 1] - bounds[e]), int(per_exp_unique[e]))
            for e in range(E + 1)
            if bounds[e + 1] > bounds[e]
        }

        desc = order[::-1]
        rows_d, l_d = rows[desc], l[desc]
        starts_d = indptr[rows_d].astype(np.int64)
        within_d = np.arange(int(l_d.sum())) - np.repeat(np.cumsum(l_d) - l_d, l_d)
        cols_d = indices[np.repeat(starts_d, l_d) + within_d].astype(np.int64)
        _, first_pos = np.unique(cols_d, return_index=True)
        first_pos = np.sort(first_pos)
        exps_d = exps[desc]
        row_boundary = np.searchsorted(-exps_d, -np.arange(E + 2), side="right")
        elem_boundary = np.concatenate([[0], np.cumsum(l_d)])[row_boundary]
        self._suffix_unique = np.searchsorted(first_pos, elem_boundary)
        self._suffix_rows = row_boundary
        self._lengths_desc = l_d

    def cap_bucket_rows(self, max_exp: int) -> int:
        m = min(max_exp, self.natural_max_exp)
        n_rows = int(self._suffix_rows[m])
        if n_rows == 0:
            return 0
        W = 1 << m
        prefix = self._lengths_desc[:n_rows]
        return int(np.sum(-(-prefix // W)))

    def cap_bucket_unique(self, max_exp: int) -> int:
        return int(self._suffix_unique[min(max_exp, self.natural_max_exp)])

    def cap_bucket_output_rows(self, max_exp: int) -> int:
        return int(self._suffix_rows[min(max_exp, self.natural_max_exp)])

    def cost(
        self,
        max_exp: int,
        J: int,
        num_partitions: int = 1,
        atomic_weight: float = DEFAULT_ATOMIC_WEIGHT,
        legacy_eq7: bool = False,
    ) -> float:
        if max_exp < 0:
            raise ValueError(f"max_exp must be >= 0, got {max_exp}")
        if self.num_nonempty_rows == 0:
            return 0.0
        max_exp = min(max_exp, self.natural_max_exp)
        multi = num_partitions > 1 and not legacy_eq7
        total = 0.0
        for e, (num_rows, unique_cols) in self._naturals.items():
            if e >= max_exp:
                continue
            total += bucket_cost(
                num_rows,
                1 << e,
                unique_cols,
                J,
                atomic=multi,
                atomic_weight=atomic_weight,
                zero_rows=num_rows if multi else 0,
            )
        I1 = self.cap_bucket_rows(max_exp)
        if I1:
            folded = max_exp < self.natural_max_exp
            atomic = (folded or multi) and not legacy_eq7
            total += bucket_cost(
                I1,
                1 << min(max_exp, self.natural_max_exp),
                self.cap_bucket_unique(max_exp),
                J,
                atomic=atomic,
                atomic_weight=atomic_weight,
                zero_rows=self.cap_bucket_output_rows(max_exp) if atomic else 0,
            )
        return total


def reference_matrix_cost_profiles(
    A: sp.csr_matrix, num_partitions: int
) -> list[ReferencePartitionCostProfile]:
    """The pre-vectorization ``matrix_cost_profiles``: scipy slicing again."""
    I, K = A.shape
    bounds = partition_bounds(K, num_partitions)
    profiles = []
    csc = A.tocsc() if num_partitions > 1 else None
    for c0, c1 in bounds:
        sub = csc[:, c0:c1].tocsr() if csc is not None else A
        lengths = np.diff(sub.indptr).astype(np.int64)
        profiles.append(
            ReferencePartitionCostProfile(
                lengths, sub.indptr.astype(np.int64), sub.indices
            )
        )
    return profiles


def reference_build_buckets(profile, J: int, num_partitions: int = 1) -> int:
    """Algorithm 3's binary probe over ``profile.cost`` (scalar evaluations).

    Returns the chosen ``max_exp``.  Works with either profile class since
    both expose ``cost``/``natural_max_exp``.
    """
    if J < 1:
        raise ValueError(f"J must be >= 1, got {J}")
    lo, hi = 0, profile.natural_max_exp
    while lo < hi:
        mid = (lo + hi) // 2
        if profile.cost(mid, J, num_partitions=num_partitions) > profile.cost(
            min(mid + 1, hi), J, num_partitions=num_partitions
        ):
            lo = mid + 1
        else:
            hi = mid
    return lo


def reference_compose_cell(
    A: sp.csr_matrix, num_partitions: int, J: int, block_multiple: int = 2
) -> CELLFormat:
    """The full pre-vectorization tune-width + build stage of the pipeline."""
    profiles = reference_matrix_cost_profiles(A, num_partitions)
    widths = [
        1 << reference_build_buckets(p, J, num_partitions=num_partitions)
        if p.num_nonempty_rows
        else 1
        for p in profiles
    ]
    return reference_cell_from_csr(
        A, num_partitions=num_partitions, max_widths=widths, block_multiple=block_multiple
    )
