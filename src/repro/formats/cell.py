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
incrementally.

Storage: a bucket keeps its entries once, as a CSR slab of its rows.  The
padding is implied, not stored: on the GPU every bucket row occupies
``width`` column-index and value slots, and ``stored_elements`` /
``footprint_bytes`` charge those slots by formula (``num_rows * width``).
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


@dataclass
class Bucket:
    """One Ellpack sub-matrix: rows of similar length, padded to ``width``.

    ``row_ind`` holds the *original* matrix row of each bucket row; folded
    rows appear multiple times, as neighbours (Figure 4).  ``slab`` holds
    the entries as a ``(num_rows, num_cols)`` CSR matrix: row ``r`` is
    bucket row ``r``'s entries, global column ids in stored order.  The
    padding to ``width`` is implied, not stored; its cost is charged by
    formula (``stored_elements``, ``footprint_bytes``).  The slab is what
    the CELL kernels count wave traffic on, multiply and sample through.
    """

    width: int
    row_ind: np.ndarray  # (R,) int32, non-decreasing
    slab: sp.csr_matrix  # (R, num_cols) float32
    block_rows: int  # rows per block (level 3)

    def __post_init__(self) -> None:
        if self.width < 1 or (self.width & (self.width - 1)):
            raise ValueError(f"bucket width must be a power of two, got {self.width}")
        if self.slab.shape[0] != self.row_ind.size:
            raise ValueError("slab must have one row per row_ind entry")
        if np.any(self.row_ind[1:] < self.row_ind[:-1]):
            raise ValueError("row_ind must be non-decreasing")
        if self.block_rows < 1:
            raise ValueError("block_rows must be >= 1")

    @property
    def num_rows(self) -> int:
        """I^(1): bucket rows, folded rows counted once per chunk."""
        return int(self.row_ind.size)

    @cached_property
    def num_output_rows(self) -> int:
        """I^(2): distinct output rows of C this bucket contributes to.

        ``row_ind`` is non-decreasing, so every fold is a repeated
        neighbour."""
        r = self.row_ind
        return self.num_rows - int(np.count_nonzero(r[1:] == r[:-1]))

    @cached_property
    def has_folds(self) -> bool:
        """Whether some output row spans several bucket rows (Section 5.3)."""
        return self.num_output_rows < self.num_rows

    @property
    def nnz(self) -> int:
        return int(self.slab.nnz)

    @property
    def stored_elements(self) -> int:
        """Value slots including the implied padding to ``width``."""
        return self.num_rows * self.width

    @cached_property
    def unique_cols(self) -> int:
        """|set(Ind[i, w])|: distinct B rows this bucket reads (Eq. 5-7)."""
        return int(np.unique(self.slab.indices).size)

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
        """Device bytes of ``row_ind`` plus the padded int32 column and
        float32 value arrays the GPU kernel streams."""
        return self.row_ind.nbytes + 8 * self.stored_elements


@dataclass
class Partition:
    """One column partition: a list of buckets ordered by increasing width."""

    index: int
    col_start: int
    col_end: int
    buckets: list[Bucket] = field(default_factory=list)

    @property
    def num_cols(self) -> int:
        return self.col_end - self.col_start

    @property
    def max_width(self) -> int:
        return max((b.width for b in self.buckets), default=0)

    @property
    def nnz(self) -> int:
        return sum(b.nnz for b in self.buckets)


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
        partitions: list[Partition] = []
        for p, (c0, c1) in enumerate(bounds):
            buckets = cls._build_partition_buckets(
                counts[:, p],
                starts[:, p],
                A.indices,
                A.data,
                num_cols=K,
                max_width=width_caps[p],
                block_multiple=block_multiple,
            )
            partitions.append(
                Partition(index=p, col_start=c0, col_end=c1, buckets=buckets)
            )
        return cls((I, K), partitions, int(A.nnz))

    @staticmethod
    def _build_partition_buckets(
        lengths: np.ndarray,
        starts: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
        num_cols: int,
        max_width: int | None,
        block_multiple: int,
    ) -> list[Bucket]:
        """Build one partition's buckets by gathering straight from the
        parent CSR arrays: ``lengths[r]`` elements of row ``r`` live at
        ``indices[starts[r]:starts[r] + lengths[r]]`` (already global
        column ids), so no per-partition matrix is ever materialized.
        Each bucket's chunks are gathered, in order, into its slab.
        """
        lengths = np.asarray(lengths, dtype=np.int64)
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
        buckets: list[Bucket] = []
        boundaries = np.searchsorted(chunk_exp, np.arange(max_exp + 2))
        starts = np.asarray(starts, dtype=np.int64)
        for e in range(max_exp + 1):
            lo, hi = boundaries[e], boundaries[e + 1]
            if lo == hi:
                continue
            width = 1 << e
            rows = chunk_row[lo:hi]
            lens = chunk_len[lo:hi]
            indptr = np.zeros(rows.size + 1, dtype=INDEX_DTYPE)
            np.cumsum(lens, out=indptr[1:])
            within = np.arange(int(indptr[-1])) - np.repeat(indptr[:-1], lens)
            src = np.repeat(starts[rows] + chunk_off[lo:hi], lens) + within
            slab = sp.csr_matrix(
                (
                    data[src].astype(VALUE_DTYPE, copy=False),
                    indices[src].astype(INDEX_DTYPE, copy=False),
                    indptr,
                ),
                shape=(rows.size, num_cols),
            )
            buckets.append(
                Bucket(
                    width=width,
                    row_ind=rows.astype(INDEX_DTYPE),
                    slab=slab,
                    block_rows=max(1, block_nnz // width),
                )
            )
        return buckets

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
        slabs = [(b.row_ind, b.slab) for _, b in self.iter_buckets()]
        if not slabs:
            return sp.csr_matrix(self.shape, dtype=VALUE_DTYPE)
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
