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
are bucket rows (chunks) in *output order*.  Slab rows ``0..I-1`` hold the
first chunk of every output row in row order (an empty row where the
partition has no entries), so the partition's product lands in ``C``'s row
order.  The rows after them hold the later chunks of folded rows, the
*tail*, in rank order: a chunk's rank is its position within its source
row, and the tail lists all second chunks (in row order), then all third
chunks, and so on.  Buckets store no rows of their own: a bucket is a range
of the partition's ``order`` array, which lists the first-chunk rows in
bucket order, and the max bucket also owns the tail.  A folded row is
summed by one 0/1 CSR product, ``combine``, over its running value and its
tail chunks in rank order -- the atomicAdd order of Algorithm 2.  The
padding is implied, not stored: on the GPU every bucket row occupies
``width`` column-index and value slots, and ``stored_elements`` /
``footprint_bytes`` charge those slots by formula (``num_rows * width``).

Re-value: everything but the slab values depends only on the sparsity
pattern.  :meth:`CELLFormat.revalue` gathers a same-pattern matrix's values
into a copy that shares the pattern's structure -- slab index arrays,
``order``, ``tail_rows``, ``combine``, the gather map and the kernel memo --
so a pattern is composed and planned once however often its values change.
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

    A bucket stores no entries of its own.  Its first chunks are the rows
    ``part_order[lo:hi]`` of its partition's slab ``part_slab`` (slab row
    ``r`` is output row ``r``'s first chunk), and ``tail_rows`` are the
    output rows of the partition's tail chunks, the slab's last rows -- all
    of them for the max bucket, none for the others.  :attr:`row_ind` and
    :meth:`entries` give the rows in bucket order, where a folded row's
    chunks are neighbours (Figure 4).  The padding to ``width`` is implied,
    not stored; its cost is charged by formula (``stored_elements``,
    ``footprint_bytes``).
    """

    width: int
    lo: int
    hi: int
    block_rows: int  # rows per block (level 3)
    part_slab: sp.csr_matrix = field(repr=False)
    part_order: np.ndarray = field(repr=False)  # (N,) int32
    tail_rows: np.ndarray = field(repr=False)  # (T,) int32, or (0,)

    def __post_init__(self) -> None:
        if self.width < 1 or (self.width & (self.width - 1)):
            raise ValueError(f"bucket width must be a power of two, got {self.width}")
        if not 0 <= self.lo <= self.hi <= self.part_order.size:
            raise ValueError("bucket rows must be a range of the partition order")
        if self.part_slab.shape[0] < self.part_order.size + self.tail_rows.size:
            raise ValueError("part_slab must have one row per first chunk and tail chunk")
        if self.block_rows < 1:
            raise ValueError("block_rows must be >= 1")

    @property
    def num_output_rows(self) -> int:
        """I^(2): distinct output rows, one first chunk each."""
        return self.hi - self.lo

    @property
    def num_rows(self) -> int:
        """I^(1): bucket rows, folded rows counted once per chunk."""
        return self.hi - self.lo + self.tail_rows.size

    @property
    def has_folds(self) -> bool:
        """Whether some output row spans several bucket rows (Section 5.3)."""
        return self.tail_rows.size > 0

    @property
    def row_ind(self) -> np.ndarray:
        """The *original* matrix row of each bucket row, in bucket order
        (non-decreasing; a folded row repeats once per chunk)."""
        rows = self.part_order[self.lo : self.hi]
        return np.sort(np.concatenate((rows, self.tail_rows))) if self.has_folds else rows

    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(indptr, indices, data)`` of the bucket rows in bucket order,
        ``indptr`` from 0 and global column ids in stored order, gathered
        out of the slab by one index gather.  The first chunks are in row
        order and each row's tail chunks in rank order, so a stable sort by
        output row interleaves them."""
        indptr = self.part_slab.indptr
        rows = self.part_order[self.lo : self.hi]
        if self.has_folds:
            R, T = indptr.size - 1, self.tail_rows.size
            by_row = np.argsort(np.concatenate((rows, self.tail_rows)), kind="stable")
            rows = np.concatenate((rows, np.arange(R - T, R, dtype=rows.dtype)))[by_row]
        starts = indptr[rows]
        lens = indptr[rows + 1] - starts
        out = np.zeros(rows.size + 1, dtype=indptr.dtype)
        np.cumsum(lens, out=out[1:])
        src = np.repeat(starts - out[:-1], lens)
        src += np.arange(out[-1], dtype=src.dtype)
        return out, self.part_slab.indices[src], self.part_slab.data[src]

    @property
    def nnz(self) -> int:
        return int(self.entries()[0][-1])

    @property
    def stored_elements(self) -> int:
        """Value slots including the implied padding to ``width``."""
        return self.num_rows * self.width

    @cached_property
    def unique_cols(self) -> int:
        """|set(Ind[i, w])|: distinct B rows this bucket reads (Eq. 5-7)."""
        return int(np.unique(self.entries()[1]).size)

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
        return self.num_rows * self.part_order.itemsize + 8 * self.stored_elements


def _copy_with(obj, **attrs):
    """A shallow copy of ``obj`` with ``attrs`` set and its cached
    properties kept: a re-value's copy of already-validated structure."""
    copy = object.__new__(type(obj))
    copy.__dict__.update(obj.__dict__, **attrs)
    return copy


#: The ``combine`` of every partition without folded rows (never written).
_NO_FOLDS = sp.csr_matrix((0, 0), dtype=VALUE_DTYPE)


class _Folds:
    """A partition's folded rows and their ``combine``, derived from its
    tail chunks' rows on first use -- only execution reads them -- and
    shared by its re-valued copies."""

    def __init__(self, tail_rows: np.ndarray):
        self.tail_rows = tail_rows

    @cached_property
    def rows(self) -> np.ndarray:
        return np.unique(self.tail_rows)

    @cached_property
    def combine(self) -> sp.csr_matrix:
        if not self.tail_rows.size:
            return _NO_FOLDS
        # the tail is in rank order; a stable sort by row keeps it
        F, T = self.rows.size, self.tail_rows.size
        indptr = np.zeros(F + 1, dtype=INDEX_DTYPE)
        np.cumsum(np.unique(self.tail_rows, return_counts=True)[1] + 1, out=indptr[1:])
        tails = F + np.argsort(self.tail_rows, kind="stable").astype(INDEX_DTYPE)
        cols = np.insert(tails, indptr[:-1] - np.arange(F), np.arange(F, dtype=INDEX_DTYPE))
        return sp.csr_matrix(
            (np.ones(F + T, dtype=VALUE_DTYPE), cols, indptr), shape=(F, F + T)
        )


@dataclass
class Partition:
    """One column partition: its slab and the buckets indexing it.

    ``slab`` is the ``(I + T, num_cols)`` CSR matrix of the module
    docstring: the first chunk of each of the ``I`` output rows in row
    order, then the ``T`` tail chunks in rank order.  ``order`` lists the
    output rows that have a first chunk here, in bucket order, and
    ``tail_rows`` the output row of each tail chunk.  ``buckets`` are
    ordered by increasing width.  ``folds`` derives ``fold_rows`` and
    ``combine`` from ``tail_rows`` on first use.
    """

    index: int
    col_start: int
    col_end: int
    slab: sp.csr_matrix
    order: np.ndarray  # (N,) int32
    tail_rows: np.ndarray  # (T,) int32
    buckets: list[Bucket]
    folds: _Folds = field(repr=False)

    @classmethod
    def from_slab(
        cls,
        index: int,
        col_start: int,
        col_end: int,
        slab: sp.csr_matrix,
        order: np.ndarray,
        order_exp: np.ndarray,
        tail_rows: np.ndarray,
        block_multiple: int,
    ) -> "Partition":
        """Index a slab already in output order: ``order`` lists the rows
        with a first chunk in bucket order and ``order_exp`` their
        (non-decreasing) bucket exponents; ``tail_rows`` are sorted by
        rank, then output row."""
        max_exp = int(order_exp[-1]) if order.size else -1  # -1: no buckets
        cuts = np.searchsorted(order_exp, np.arange(max_exp + 2)).tolist()
        buckets = [
            Bucket(
                width=1 << e,
                lo=cuts[e],
                hi=cuts[e + 1],
                block_rows=max(1, (block_multiple << max_exp) >> e),
                part_slab=slab,
                part_order=order,
                # the max bucket also owns every tail chunk
                tail_rows=tail_rows if e == max_exp else tail_rows[:0],
            )
            for e in range(max_exp + 1)
            if cuts[e + 1] > cuts[e]
        ]
        return cls(index, col_start, col_end, slab, order, tail_rows, buckets, _Folds(tail_rows))

    @property
    def fold_rows(self) -> np.ndarray:
        """The rows with tail chunks, in row order."""
        return self.folds.rows

    @property
    def combine(self) -> sp.csr_matrix:
        """The ``(F, F + T)`` 0/1 CSR whose row ``j`` lists ``j``, then
        ``F +`` the tail indices of ``fold_rows[j]`` in rank order."""
        return self.folds.combine

    def with_data(self, data: np.ndarray) -> "Partition":
        """This partition holding ``data`` as its slab values: a copy that
        shares every index array, the bucket geometry and :attr:`folds`."""
        # scipy's constructor would re-check the shared index arrays; copy
        slab = _copy_with(self.slab, data=data)
        buckets = [_copy_with(b, part_slab=slab) for b in self.buckets]
        return _copy_with(self, slab=slab, buckets=buckets)

    @property
    def num_cols(self) -> int:
        return self.col_end - self.col_start

    @property
    def row_ind(self) -> np.ndarray:
        """The output row of each slab row."""
        I = self.slab.shape[0] - self.tail_rows.size
        return np.concatenate((np.arange(I, dtype=self.tail_rows.dtype), self.tail_rows))

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
    :func:`repro.core.parallel.compose_partitions` via ``cells=`` so a
    caller that composes one split several times splits it once.
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
    ) -> "CELLFormat":
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
        A, bounds, counts, starts = split_csr(A, num_partitions)
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
        are gathered, in output order (module docstring), into the one slab.
        """
        if block_multiple < 1 or (block_multiple & (block_multiple - 1)):
            raise ValueError(f"block_multiple must be a power of two, got {block_multiple}")
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
        # A row longer than the cap W folds into ceil(l / W) chunks of W
        # elements (the last padded); a chunk's rank is its index in its row.
        # Only rows in the (row-ordered) max bucket fold, so sorting the
        # later chunks stably by rank leaves each rank in row order.
        W = 1 << max_exp
        later = -(-lengths // W) - 1
        rank = 1 + np.arange(int(later.sum())) - np.repeat(np.cumsum(later) - later, later)
        by_rank = np.argsort(rank, kind="stable")
        rank = rank[by_rank]
        tail_rows = np.repeat(rows, later)[by_rank]
        starts = np.asarray(starts, dtype=np.int64)
        lens = np.zeros(starts.size + tail_rows.size, dtype=np.int64)
        lens[rows] = np.minimum(lengths, W)
        lens[starts.size :] = np.minimum(np.repeat(lengths, later)[by_rank] - rank * W, W)
        indptr = np.zeros(lens.size + 1, dtype=INDEX_DTYPE)
        np.cumsum(lens, out=indptr[1:])
        first = np.concatenate((starts, starts[tail_rows] + rank * W))
        src = np.repeat(first - indptr[:-1], lens) + np.arange(int(indptr[-1]))
        slab = sp.csr_matrix(
            (
                data[src].astype(VALUE_DTYPE, copy=False),
                indices[src].astype(INDEX_DTYPE, copy=False),
                indptr,
            ),
            shape=(lens.size, num_cols),
        )
        return Partition.from_slab(
            index,
            col_start,
            col_end,
            slab,
            rows.astype(INDEX_DTYPE),
            np.minimum(groups.exps[first_chunks], max_exp),
            tail_rows.astype(INDEX_DTYPE),
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
    # Re-value
    # ------------------------------------------------------------------
    @cached_property
    def gather_map(self) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
        """``(src, indptr, indices)``: the matrix's canonical CSR pattern
        and, per partition, where each slab entry sits in it -- slab entry
        ``k`` of partition ``p`` is element ``src[p][k]`` of the canonical
        ``data`` (duplicate entries share one).  Derived from the slabs
        alone on first use (a re-value or an SDDMM), then shared by every
        re-valued copy."""
        I, K = self.shape
        keys = np.concatenate([
            np.repeat(p.row_ind.astype(np.int64) * K, np.diff(p.slab.indptr)) + p.slab.indices
            for p in self.partitions
        ])
        uniq, pos = np.unique(keys, return_inverse=True)
        indptr = np.zeros(I + 1, dtype=INDEX_DTYPE)
        np.cumsum(np.bincount(uniq // K, minlength=I), out=indptr[1:])
        src = np.split(pos, np.cumsum([p.nnz for p in self.partitions])[:-1])
        return src, indptr, (uniq % K).astype(INDEX_DTYPE)

    def revalue(self, A: sp.csr_matrix) -> "CELLFormat":
        """This format holding the values of ``A``, a canonical CSR matrix
        of the pattern the format was built from: each slab's values are
        one gather out of ``A.data`` by :attr:`gather_map`.  The copy
        shares every index array, ``combine``, the gather map and the
        kernel memo (kernel stats depend only on the structure)."""
        src, indptr, _ = self.gather_map
        same = A.shape == self.shape and A.nnz == indptr[-1] == self.nnz
        if not (same and A.has_canonical_format):
            raise ValueError("revalue needs a canonical matrix of the format's own pattern")
        data = A.data.astype(VALUE_DTYPE, copy=False)
        parts = [p.with_data(data[s]) for p, s in zip(self.partitions, src)]
        return _copy_with(self, partitions=parts, kernel_memo=self.kernel_memo)

    # ------------------------------------------------------------------
    # SparseFormat interface
    # ------------------------------------------------------------------
    def to_csr(self) -> sp.csr_matrix:
        # A row's first chunk precedes its tail chunks, which are in rank order.
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
