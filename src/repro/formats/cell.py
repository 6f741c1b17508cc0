"""Composable Ellpack (CELL): the paper's three-level blockwise format.

Level 1 — **partitions**: columns are divided into ``P`` equal partitions.
Level 2 — **buckets**: within a partition, rows are grouped by length;
bucket *i* has width ``2**i`` and holds rows with ``2**(i-1) < l <= 2**i``.
A per-partition *maximum bucket width* may cap the widest bucket; rows
longer than the cap are **folded** into multiple bucket rows that share the
same entry in the row-index array (Section 5.3, Figure 5).
Level 3 — **blocks**: every bucket groups rows so each block holds
``block_nnz = block_multiple * max_bucket_width`` stored elements — the GPU
thread-block work unit of Algorithm 2.

Folding rule: a row of length ``l > W`` (the partition's max width) becomes
``ceil(l / W)`` rows in the max-width bucket (the last chunk is padded).
Keeping all folded chunks in the max bucket — rather than scattering
remainders into smaller buckets — makes the bucket population below the max
width independent of the chosen cap, which is what lets both this builder
and the cost model of :mod:`repro.core.cost_model` evaluate candidate widths
incrementally.  Both read a partition's rows through one :class:`RowGroups`,
the only place the bucketing rule is applied.

Storage: a partition keeps its entries once, as one CSR slab whose rows
are bucket rows (chunks) in *fold-rank* order.  A chunk's rank is its
position within its source row: rank 0 holds every row's first chunk,
bucket by bucket in increasing width, then come all second chunks (in row
order), then all third chunks, and so on.  Folds only land in the max
bucket, so every bucket is a contiguous row range of the slab; only the max
bucket's range is rank-major instead of row-major.  Each rank section
writes an output row at most once, which is what lets SpMM scatter a
partition's single product with one plain ``+=`` per rank.  The padding is
implied, not stored: on the GPU every bucket row occupies ``width``
column-index and value slots, and ``stored_elements`` / ``footprint_bytes``
charge those slots by formula (``num_rows * width``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from repro.formats.base import (
    INDEX_DTYPE,
    VALUE_DTYPE,
    SparseFormat,
    ceil_pow2_exponent,
)


@dataclass(eq=False)
class Bucket:
    """One Ellpack sub-matrix: rows of similar length, padded to ``width``.

    A bucket stores no entries of its own.  It is the row range ``lo:hi``
    of its partition's slab, and ``part_slab``/``part_rows`` are that slab
    and its output-row array, shared with the partition.  The range lists
    the bucket's ``num_output_rows`` first chunks, then (max bucket only)
    the later chunks of its folded rows in rank order.  :attr:`row_ind` and
    :meth:`entries` give the rows in bucket order, where a folded row's
    chunks are neighbours (Figure 4).  The padding to ``width`` is implied,
    not stored; its cost is charged by formula (``stored_elements``,
    ``footprint_bytes``).
    """

    width: int
    lo: int
    hi: int
    num_output_rows: int  # I^(2): distinct output rows, one first chunk each
    block_rows: int  # rows per block (level 3)
    part_slab: sp.csr_matrix = field(repr=False)
    part_rows: np.ndarray = field(repr=False)  # (R,) int32

    def __post_init__(self) -> None:
        if self.width < 1 or (self.width & (self.width - 1)):
            raise ValueError(f"bucket width must be a power of two, got {self.width}")
        if not 0 <= self.lo <= self.hi <= self.part_rows.size:
            raise ValueError("bucket rows must be a range of the partition slab")
        if self.part_slab.shape[0] != self.part_rows.size:
            raise ValueError("part_slab must have one row per part_rows entry")
        if not 0 <= self.num_output_rows <= self.num_rows:
            raise ValueError("num_output_rows must not exceed num_rows")
        if self.block_rows < 1:
            raise ValueError("block_rows must be >= 1")

    @property
    def num_rows(self) -> int:
        """I^(1): bucket rows, folded rows counted once per chunk."""
        return self.hi - self.lo

    @property
    def has_folds(self) -> bool:
        """Whether some output row spans several bucket rows (Section 5.3)."""
        return self.num_output_rows < self.num_rows

    @property
    def row_ind(self) -> np.ndarray:
        """The *original* matrix row of each bucket row, in bucket order
        (non-decreasing; a folded row repeats once per chunk)."""
        rows = self.part_rows[self.lo : self.hi]
        return np.sort(rows) if self.has_folds else rows

    def entries(
        self, ordered: bool = True
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(indptr, indices, data)`` of the bucket rows in bucket order,
        ``indptr`` from 0 and global column ids in stored order.  Views of
        the slab, except for a max bucket with folds, whose rows are
        gathered out of rank order -- unless ``ordered`` is false, for
        readers that do not depend on the row order."""
        slab = self.part_slab
        if ordered and self.has_folds:
            rows = self.part_rows[self.lo : self.hi]
            sub = slab[self.lo + np.argsort(rows, kind="stable")]
            return sub.indptr, sub.indices, sub.data
        a, b = slab.indptr[self.lo], slab.indptr[self.hi]
        indptr = slab.indptr[self.lo : self.hi + 1] - a
        return indptr, slab.indices[a:b], slab.data[a:b]

    @property
    def nnz(self) -> int:
        indptr = self.part_slab.indptr
        return int(indptr[self.hi] - indptr[self.lo])

    @property
    def stored_elements(self) -> int:
        """Value slots including the implied padding to ``width``."""
        return self.num_rows * self.width

    @cached_property
    def unique_cols(self) -> int:
        """|set(Ind[i, w])|: distinct B rows this bucket reads (Eq. 5-7)."""
        slab = self.part_slab
        cols = slab.indices[slab.indptr[self.lo] : slab.indptr[self.hi]]
        return int(np.unique(cols).size)

    @property
    def num_blocks(self) -> int:
        if self.num_rows == 0:
            return 0
        return -(-self.num_rows // self.block_rows)

    @property
    def block_nnz(self) -> int:
        """Stored elements (incl. padding) processed per full block: 2^k."""
        return self.block_rows * self.width

    @property
    def footprint_bytes(self) -> int:
        """Device bytes of the bucket's ``row_ind`` plus the padded int32
        column and float32 value arrays the GPU kernel streams."""
        return self.num_rows * self.part_rows.itemsize + 8 * self.stored_elements


@dataclass
class Partition:
    """One column partition: its slab and the buckets indexing it.

    ``slab`` is the ``(R, num_cols)`` CSR matrix of the partition's bucket
    rows in fold-rank order (module docstring), ``row_ind`` the output row
    of each slab row, and ``ranks`` the bounds of the rank sections: slab
    rows ``ranks[k]:ranks[k + 1]`` are the chunks of rank ``k``, in
    increasing output row.  ``buckets`` are ordered by increasing width.
    """

    index: int
    col_start: int
    col_end: int
    slab: sp.csr_matrix
    row_ind: np.ndarray  # (R,) int32
    ranks: tuple[int, ...]
    buckets: list[Bucket]

    @classmethod
    def from_slab(
        cls,
        index: int,
        col_start: int,
        col_end: int,
        slab: sp.csr_matrix,
        row_ind: np.ndarray,
        chunk_rank: np.ndarray,
        chunk_exp: np.ndarray,
        block_multiple: int,
    ) -> "Partition":
        """Index a slab whose rows are already in fold-rank order:
        ``chunk_rank``/``chunk_exp`` give each row's rank and bucket
        exponent, sorted by rank, then exponent, then output row."""
        if row_ind.size == 0:
            return cls(index, col_start, col_end, slab, row_ind, (0,), [])
        num_ranks = int(chunk_rank[-1]) + 1
        ranks = tuple(np.searchsorted(chunk_rank, np.arange(num_ranks + 1)).tolist())
        max_exp = int(chunk_exp[: ranks[1]].max())
        cuts = np.searchsorted(chunk_exp[: ranks[1]], np.arange(max_exp + 2)).tolist()
        block_nnz = block_multiple << max_exp
        buckets = [
            Bucket(
                width=1 << e,
                lo=cuts[e],
                # the max bucket also holds every later-rank chunk
                hi=cuts[e + 1] if e < max_exp else row_ind.size,
                num_output_rows=cuts[e + 1] - cuts[e],
                block_rows=max(1, block_nnz >> e),
                part_slab=slab,
                part_rows=row_ind,
            )
            for e in range(max_exp + 1)
            if cuts[e + 1] > cuts[e]
        ]
        return cls(index, col_start, col_end, slab, row_ind, ranks, buckets)

    @property
    def num_cols(self) -> int:
        return self.col_end - self.col_start

    @property
    def max_width(self) -> int:
        return max((b.width for b in self.buckets), default=0)

    @property
    def nnz(self) -> int:
        return int(self.slab.nnz)


def partition_bounds(num_cols: int, num_partitions: int) -> list[tuple[int, int]]:
    """Evenly split ``num_cols`` columns into ``num_partitions`` ranges."""
    if num_partitions < 1:
        raise ValueError(f"num_partitions must be >= 1, got {num_partitions}")
    if num_partitions > max(num_cols, 1):
        raise ValueError(
            f"num_partitions ({num_partitions}) exceeds matrix columns ({num_cols})"
        )
    edges = np.linspace(0, num_cols, num_partitions + 1).astype(np.int64)
    return [(int(edges[p]), int(edges[p + 1])) for p in range(num_partitions)]


def partition_cells(
    A: sp.csr_matrix, bounds: list[tuple[int, int]]
) -> tuple[np.ndarray, np.ndarray]:
    """Per-(row, partition) element counts and offsets, in one bulk pass.

    For canonical CSR (column-sorted rows), each row's elements fall into
    contiguous per-partition runs, so a single ``searchsorted`` over the
    partition edges plus one ``bincount`` replaces the per-partition
    ``csc[:, c0:c1].tocsr()`` slices the builder previously performed.

    Returns ``(counts, starts)``, both of shape ``(num_rows, P)``:
    ``counts[r, p]`` is the number of stored elements of row ``r`` inside
    partition ``p`` and ``starts[r, p]`` the offset of that run in
    ``A.indices`` / ``A.data``.  Callers gather partition ``p``'s data
    directly from the parent arrays — no per-partition copies exist.
    """
    P = len(bounds)
    I = A.shape[0]
    indptr = A.indptr.astype(np.int64)
    if P == 1:
        lens = np.diff(indptr)
        return lens[:, None], indptr[:-1][:, None]
    edges = np.asarray([c1 for _, c1 in bounds[:-1]], dtype=np.int64)
    part = np.searchsorted(edges, A.indices, side="right")
    row_of = np.repeat(np.arange(I, dtype=np.int64), np.diff(indptr))
    counts = np.bincount(row_of * P + part, minlength=I * P).reshape(I, P)
    starts = np.zeros((I, P), dtype=np.int64)
    np.cumsum(counts[:, :-1], axis=1, out=starts[:, 1:])
    starts += indptr[:-1, None]
    return counts, starts


def split_csr(
    A: sp.csr_matrix, num_partitions: int
) -> tuple[sp.csr_matrix, list[tuple[int, int]], np.ndarray, np.ndarray]:
    """Canonicalize (when required) and bulk-split ``A`` into partitions.

    Returns ``(A, bounds, counts, starts)`` — ``A`` possibly rewritten to
    canonical form (the bulk split relies on column-sorted rows; the CSC
    round trip reproduces exactly the ordering the old per-partition
    ``csc[:, c0:c1].tocsr()`` slices induced).  The tuple can be handed to
    both :func:`repro.core.cost_model.matrix_cost_profiles` and
    :meth:`CELLFormat.from_csr` via ``cells=`` so tune and build share one
    split instead of each recomputing it.
    """
    bounds = partition_bounds(A.shape[1], num_partitions)
    if num_partitions > 1 and not A.has_canonical_format:
        A = A.tocsc().tocsr()
    counts, starts = partition_cells(A, bounds)
    return A, bounds, counts, starts


def touched_partitions(
    old_counts: np.ndarray, new_counts: np.ndarray, rows: np.ndarray
) -> np.ndarray:
    """Partitions whose buckets a row update may have changed.

    ``old_counts``/``new_counts`` are ``partition_cells`` count matrices of
    shape ``(num_rows, P)`` before and after the update, ``rows`` the
    updated row indices.  A partition is touched when any updated row
    stores (or stored) elements in it — conservative on purpose: a row
    rewritten with identical columns but new values keeps its counts, yet
    its values live in the partition's buckets, so the partition must
    rebuild.  Partitions where every updated row has no elements before or
    after are untouched: their buckets gather only from other rows' runs.
    """
    if old_counts.shape != new_counts.shape:
        raise ValueError(
            f"count shapes differ: {old_counts.shape} vs {new_counts.shape}"
        )
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        return np.zeros(0, dtype=np.int64)
    if rows.min() < 0 or rows.max() >= old_counts.shape[0]:
        raise ValueError("row index out of range")
    mask = (old_counts[rows] > 0) | (new_counts[rows] > 0)
    return np.nonzero(mask.any(axis=0))[0].astype(np.int64)


@dataclass(frozen=True)
class RowGroups:
    """A partition's non-empty rows grouped by natural bucket: ``rows``
    ordered by exponent, then row, with their ``lengths`` and natural
    ``exps`` (row ``r`` belongs in bucket ``2**exps`` with
    ``2**(exps-1) < lengths <= 2**exps``, Section 4).

    The one bucketing of a partition: the cost profile sizes candidate caps
    from it and the builder folds and stores the rows from it.
    """

    rows: np.ndarray
    lengths: np.ndarray
    exps: np.ndarray

    @classmethod
    def from_lengths(cls, lengths: np.ndarray) -> "RowGroups":
        """Group the rows of one partition's per-row element counts."""
        lengths = np.asarray(lengths, dtype=np.int64)
        rows = np.nonzero(lengths > 0)[0]
        l = lengths[rows]
        exps = ceil_pow2_exponent(l)
        order = np.argsort(exps, kind="stable")
        return cls(rows[order], l[order], exps[order])

    @property
    def max_exp(self) -> int:
        """The natural maximum exponent (0 for an empty partition)."""
        return int(self.exps[-1]) if self.exps.size else 0


class CELLFormat(SparseFormat):
    """The Composable Ellpack format (Section 4).

    Parameters of ``from_csr``:

    num_partitions:
        Number of equal column partitions (level 1).
    max_widths:
        Per-partition cap on the maximum bucket width — ``None`` for the
        natural maximum, an ``int`` applied to every partition, or a
        sequence with one entry (or ``None``) per partition.  Unlike
        SparseTIR's ``hyb`` format, each partition may use a different set
        of bucket widths (the flexibility Section 4 highlights).
    block_multiple:
        ``2**k = block_multiple * max_bucket_width`` stored elements per
        block (level 3); must be a power of two.
    """

    def __init__(self, shape: tuple[int, int], partitions: list[Partition], nnz: int):
        self.shape = (int(shape[0]), int(shape[1]))
        self.partitions = partitions
        self.nnz = int(nnz)

    @classmethod
    def from_csr(
        cls,
        A: sp.csr_matrix,
        num_partitions: int = 1,
        max_widths: int | list[int | None] | None = None,
        block_multiple: int = 2,
        cells: tuple[sp.csr_matrix, list[tuple[int, int]], np.ndarray, np.ndarray]
        | None = None,
    ) -> "CELLFormat":
        if block_multiple < 1 or (block_multiple & (block_multiple - 1)):
            raise ValueError(f"block_multiple must be a power of two, got {block_multiple}")
        I, K = A.shape
        if max_widths is None or isinstance(max_widths, (int, np.integer)):
            width_caps: list[int | None] = [max_widths] * num_partitions  # type: ignore[list-item]
        else:
            width_caps = list(max_widths)
            if len(width_caps) != num_partitions:
                raise ValueError(
                    f"max_widths has {len(width_caps)} entries for "
                    f"{num_partitions} partitions"
                )
        if cells is None:
            cells = split_csr(A, num_partitions)
        A, bounds, counts, starts = cells
        if len(bounds) != num_partitions:
            raise ValueError(
                f"cells was split into {len(bounds)} partitions, "
                f"expected {num_partitions}"
            )
        partitions = [
            cls._build_partition_buckets(
                p,
                c0,
                c1,
                RowGroups.from_lengths(counts[:, p]),
                starts[:, p],
                A.indices,
                A.data,
                num_cols=K,
                max_width=width_caps[p],
                block_multiple=block_multiple,
            )
            for p, (c0, c1) in enumerate(bounds)
        ]
        return cls((I, K), partitions, int(A.nnz))

    @staticmethod
    def _build_partition_buckets(
        index: int,
        col_start: int,
        col_end: int,
        groups: RowGroups,
        starts: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
        num_cols: int,
        max_width: int | None,
        block_multiple: int,
    ) -> Partition:
        """Build one partition by gathering straight from the parent CSR
        arrays: the ``l`` elements of a grouped row ``r`` of length ``l``
        live at ``indices[starts[r]:starts[r] + l]`` (already global column
        ids), so no per-partition matrix is ever materialized.  All chunks
        are gathered, in fold-rank order, into the one slab.
        """
        max_exp = groups.max_exp
        if max_width is not None:
            if max_width < 1 or (max_width & (max_width - 1)):
                raise ValueError(f"max_width must be a power of two, got {max_width}")
            max_exp = min(max_exp, int(max_width).bit_length() - 1)
        # First chunks keep the grouping's order, except that the rows at
        # or above the cap all land in the max bucket, in row order.
        cut = int(np.searchsorted(groups.exps, max_exp))
        tail = cut + np.argsort(groups.rows[cut:], kind="stable")
        first_chunks = np.concatenate([np.arange(cut), tail])
        rows = groups.rows[first_chunks]
        lengths = groups.lengths[first_chunks]
        exps = np.minimum(groups.exps[first_chunks], max_exp)
        # A row longer than the cap W folds into ceil(l / W) chunks of W
        # elements (the last padded); a chunk's rank is its index in its row.
        W = 1 << max_exp
        n_chunks = -(-lengths // W)
        rank = np.arange(int(n_chunks.sum())) - np.repeat(
            np.cumsum(n_chunks) - n_chunks, n_chunks
        )
        order = np.argsort(rank, kind="stable")
        rank = rank[order]
        chunk_row = np.repeat(rows, n_chunks)[order]
        lens = np.minimum(np.repeat(lengths, n_chunks)[order] - rank * W, W)
        indptr = np.zeros(chunk_row.size + 1, dtype=INDEX_DTYPE)
        np.cumsum(lens, out=indptr[1:])
        within = np.arange(int(indptr[-1])) - np.repeat(indptr[:-1], lens)
        first = np.asarray(starts, dtype=np.int64)[chunk_row] + rank * W
        src = np.repeat(first, lens) + within
        slab = sp.csr_matrix(
            (
                data[src].astype(VALUE_DTYPE, copy=False),
                indices[src].astype(INDEX_DTYPE, copy=False),
                indptr,
            ),
            shape=(chunk_row.size, num_cols),
        )
        return Partition.from_slab(
            index,
            col_start,
            col_end,
            slab,
            chunk_row.astype(INDEX_DTYPE),
            rank,
            np.repeat(exps, n_chunks)[order],
            block_multiple,
        )

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------
    @property
    def num_partitions(self) -> int:
        return len(self.partitions)

    def iter_buckets(self):
        """Yield ``(partition, bucket)`` pairs across the whole format."""
        for part in self.partitions:
            for bucket in part.buckets:
                yield part, bucket

    def needs_atomic(self, bucket: Bucket) -> bool:
        """Whether Algorithm 2 must use atomicAdd for this bucket.

        Atomics are required when several partitions may write the same
        output row, or when the bucket contains folded rows handled by
        different threads (Section 5.3).
        """
        return self.num_partitions > 1 or bucket.has_folds

    @property
    def max_widths(self) -> list[int]:
        """The per-partition maximum bucket widths actually used."""
        return [p.max_width for p in self.partitions]

    # ------------------------------------------------------------------
    # SparseFormat interface
    # ------------------------------------------------------------------
    def to_csr(self) -> sp.csr_matrix:
        # A row's chunks keep their order in the rank-ordered slab.
        slabs = [(p.row_ind, p.slab) for p in self.partitions]
        rows = np.concatenate([np.repeat(r, np.diff(s.indptr)) for r, s in slabs])
        cols = np.concatenate([s.indices for _, s in slabs])
        vals = np.concatenate([s.data for _, s in slabs])
        return sp.csr_matrix(
            (vals, (rows, cols)), shape=self.shape, dtype=VALUE_DTYPE
        )

    @property
    def footprint_bytes(self) -> int:
        return int(sum(b.footprint_bytes for _, b in self.iter_buckets()))

    @property
    def stored_elements(self) -> int:
        return int(sum(b.stored_elements for _, b in self.iter_buckets()))
