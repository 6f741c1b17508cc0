"""Tests for the CELL format (Section 4)."""

import numpy as np
import pytest

from repro.bench.reference import _fold_chunks
from repro.formats import CELLFormat
from repro.formats.base import as_csr, ceil_pow2_exponent
from repro.formats.cell import partition_bounds
from repro.kernels.base import wave_unique_refs
from repro.matrices import power_law_graph, with_dense_rows


def roundtrip_equal(fmt, A):
    diff = fmt.to_csr() - A
    return diff.nnz == 0 or abs(diff).max() < 1e-5


class TestPartitionBounds:
    def test_even_split(self):
        assert partition_bounds(100, 4) == [(0, 25), (25, 50), (50, 75), (75, 100)]

    def test_uneven_split_covers_all(self):
        bounds = partition_bounds(10, 3)
        assert bounds[0][0] == 0 and bounds[-1][1] == 10
        assert all(b0 < b1 for b0, b1 in bounds)
        for (a0, a1), (b0, b1) in zip(bounds, bounds[1:]):
            assert a1 == b0

    def test_too_many_partitions_rejected(self):
        with pytest.raises(ValueError):
            partition_bounds(3, 5)

    def test_zero_partitions_rejected(self):
        with pytest.raises(ValueError):
            partition_bounds(10, 0)


class TestFoldChunks:
    def test_short_rows_one_chunk_each(self):
        lengths = np.array([0, 3, 5, 1])
        row, off, ln, exp = _fold_chunks(lengths, max_width=8)
        assert list(row) == [1, 2, 3]
        assert list(ln) == [3, 5, 1]
        assert not off.any()
        assert list(exp) == [2, 3, 0]

    def test_long_row_folds_into_max_bucket(self):
        lengths = np.array([20])
        row, off, ln, exp = _fold_chunks(lengths, max_width=8)
        assert list(row) == [0, 0, 0]
        assert list(ln) == [8, 8, 4]
        assert list(off) == [0, 8, 16]
        # all chunks land in the max (2^3) bucket
        assert list(exp) == [3, 3, 3]

    def test_exact_multiple_no_remainder(self):
        lengths = np.array([16])
        row, off, ln, exp = _fold_chunks(lengths, max_width=8)
        assert list(ln) == [8, 8]

    def test_natural_width_no_folding(self):
        lengths = np.array([1, 2, 3, 100])
        _, off, _, exp = _fold_chunks(lengths, max_width=None)
        assert not off.any()
        assert exp.max() == ceil_pow2_exponent(100)

    def test_non_power_of_two_width_rejected(self):
        with pytest.raises(ValueError):
            _fold_chunks(np.array([5]), max_width=6)


class TestCELLConstruction:
    def test_roundtrip_all_matrices(self, matrix_suite):
        for name, A in matrix_suite.items():
            for P in (1, 2):
                if P > A.shape[1]:
                    continue
                f = CELLFormat.from_csr(A, num_partitions=P)
                assert roundtrip_equal(f, A), (name, P)

    def test_roundtrip_with_capped_width(self, matrix_suite):
        for name, A in matrix_suite.items():
            f = CELLFormat.from_csr(A, num_partitions=1, max_widths=4)
            assert roundtrip_equal(f, A), name

    def test_roundtrip_per_partition_widths(self, matrix_suite):
        A = matrix_suite["power_law"]
        f = CELLFormat.from_csr(A, num_partitions=3, max_widths=[2, 8, None])
        assert roundtrip_equal(f, A)
        assert f.partitions[0].max_width <= 2
        assert f.partitions[1].max_width <= 8

    def test_bucket_membership_rule(self, matrix_suite):
        """Rows with 2^(i-1) < l <= 2^i land in the width-2^i bucket."""
        A = matrix_suite["power_law"]
        f = CELLFormat.from_csr(A, num_partitions=1)
        lengths = np.diff(A.indptr)
        for _, bucket in f.iter_buckets():
            if bucket.has_folds:
                continue
            for r in np.unique(bucket.row_ind):
                l = lengths[r]
                assert ceil_pow2_exponent(int(l)) == int(np.log2(bucket.width))

    def test_folded_rows_share_row_index(self, matrix_suite):
        A = matrix_suite["dense_rows"]
        f = CELLFormat.from_csr(A, num_partitions=1, max_widths=8)
        top = [b for _, b in f.iter_buckets() if b.has_folds]
        assert top, "capped width on dense rows must produce folds"
        for bucket in top:
            counts = np.bincount(bucket.row_ind)
            assert counts.max() > 1  # some row appears multiple times

    def test_block_nnz_is_multiple_of_max_width(self, matrix_suite):
        A = matrix_suite["power_law"]
        for bm in (1, 2, 4):
            f = CELLFormat.from_csr(A, num_partitions=2, block_multiple=bm)
            for part, bucket in f.iter_buckets():
                assert bucket.block_nnz == bm * part.max_width

    def test_block_rows_divide_bucket(self, matrix_suite):
        f = CELLFormat.from_csr(matrix_suite["community"], num_partitions=1)
        for _, bucket in f.iter_buckets():
            assert bucket.block_rows * bucket.width == bucket.block_nnz
            assert bucket.num_blocks == -(-bucket.num_rows // bucket.block_rows)

    def test_atomic_rules(self, matrix_suite):
        A = matrix_suite["power_law"]
        single = CELLFormat.from_csr(A, num_partitions=1)
        # single partition, natural widths: no folds, no atomics anywhere
        for _, bucket in single.iter_buckets():
            assert not single.needs_atomic(bucket)
        multi = CELLFormat.from_csr(A, num_partitions=2)
        for _, bucket in multi.iter_buckets():
            assert multi.needs_atomic(bucket)
        capped = CELLFormat.from_csr(A, num_partitions=1, max_widths=4)
        flags = [capped.needs_atomic(b) for _, b in capped.iter_buckets()]
        widths = [b.width for _, b in capped.iter_buckets()]
        # only the folded (max-width) bucket needs atomics
        assert any(flags)
        for w, fl in zip(widths, flags):
            if fl:
                assert w == 4

    def test_partition_column_ranges(self, matrix_suite):
        A = matrix_suite["uniform"]
        f = CELLFormat.from_csr(A, num_partitions=3)
        for part, bucket in f.iter_buckets():
            _, cols, _ = bucket.entries()
            assert cols.min() >= part.col_start
            assert cols.max() < part.col_end

    def test_nnz_preserved_across_partitions(self, matrix_suite):
        for A in matrix_suite.values():
            for P in (1, 2):
                if P > A.shape[1]:
                    continue
                f = CELLFormat.from_csr(A, num_partitions=P)
                assert sum(p.nnz for p in f.partitions) == A.nnz

    def test_invalid_args(self, tiny_matrix):
        with pytest.raises(ValueError):
            CELLFormat.from_csr(tiny_matrix, num_partitions=0)
        with pytest.raises(ValueError):
            CELLFormat.from_csr(tiny_matrix, block_multiple=3)
        with pytest.raises(ValueError):
            CELLFormat.from_csr(tiny_matrix, num_partitions=2, max_widths=[4])

    def test_padding_reduced_by_partitioning_dense_rows(self):
        A = with_dense_rows(power_law_graph(400, 5, seed=9), 2, row_density=0.5, seed=10)
        p1 = CELLFormat.from_csr(A, num_partitions=1, max_widths=16)
        p4 = CELLFormat.from_csr(A, num_partitions=4, max_widths=16)
        # partitioning splits the dense rows' columns, shrinking per-partition
        # lengths and thus total padded slots
        assert p4.stored_elements <= p1.stored_elements * 1.1

    def test_empty_matrix(self):
        import scipy.sparse as sp

        A = as_csr(sp.csr_matrix((5, 7), dtype=np.float32))
        f = CELLFormat.from_csr(A, num_partitions=2)
        assert f.nnz == 0
        assert f.to_csr().nnz == 0


class TestBucketQueries:
    def test_unique_cols(self, matrix_suite):
        A = matrix_suite["community"]
        f = CELLFormat.from_csr(A, num_partitions=1)
        for _, bucket in f.iter_buckets():
            # one partition, natural widths: each bucket row is a whole row of A
            assert bucket.unique_cols == np.unique(A[bucket.row_ind].indices).size

    def test_wave_traffic_consistency(self, matrix_suite):
        A = matrix_suite["power_law"]
        f = CELLFormat.from_csr(A, num_partitions=1)
        K = A.shape[1]
        for _, bucket in f.iter_buckets():
            indptr, indices, _ = bucket.entries()
            unique, refs = wave_unique_refs(indptr, indices, bucket.num_rows, K)
            assert refs.sum() == bucket.nnz
            assert unique.sum() == bucket.unique_cols
            # finer waves can only see more (or equal) compulsory fetches
            u2, r2 = wave_unique_refs(
                indptr, indices, max(1, bucket.num_rows // 4), K
            )
            assert r2.sum() == bucket.nnz
            assert u2.sum() >= unique.sum()

    def test_bucket_rejects_inconsistent_fields(self):
        import scipy.sparse as sp

        from repro.formats.cell import Bucket

        slab = sp.csr_matrix((3, 5), dtype=np.float32)
        rows = np.array([0, 1, 1], dtype=np.int32)
        with pytest.raises(ValueError, match="one row per"):
            Bucket(2, 0, 2, 2, 1, slab, rows[:2])
        with pytest.raises(ValueError, match="range of the partition slab"):
            Bucket(2, 1, 4, 3, 1, slab, rows)
        with pytest.raises(ValueError, match="num_output_rows"):
            Bucket(2, 0, 2, 3, 1, slab, rows)

    def test_num_output_rows(self, matrix_suite):
        A = matrix_suite["dense_rows"]
        f = CELLFormat.from_csr(A, num_partitions=1, max_widths=8)
        for _, bucket in f.iter_buckets():
            assert bucket.num_output_rows == np.unique(bucket.row_ind).size
            assert bucket.num_output_rows <= bucket.num_rows
