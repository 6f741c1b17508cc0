"""The vectorized CELL compose/kernel paths are bit-identical to the
pre-vectorization loop implementations kept in :mod:`repro.bench.reference`
and to the per-bucket execute oracle below, plus edge cases of the bulk
partition split and the folding rule."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.bench.reference import (
    reference_build_buckets,
    reference_compose_cell,
    reference_matrix_cost_profiles,
    reference_padded_partitions,
)
from repro.core.bucket_search import build_buckets, exhaustive_width_search
from repro.core.cost_model import matrix_cost_profiles
from repro.core.pipeline import compose_cell_plan
from repro.formats.base import VALUE_DTYPE, as_csr
from repro.formats.cell import CELLFormat, partition_bounds, partition_cells, split_csr
from repro.formats.ell import PAD
from repro.kernels.base import check_dense_operand
from repro.kernels.cell_spmm import CELLSpMM
from repro.kernels.sddmm import CELLSDDMM
from repro.matrices import random_row_update
from repro.matrices.collection import SuiteSparseLikeCollection

SUITE_J = 128


@pytest.fixture(scope="module")
def collection():
    return [e.matrix for e in SuiteSparseLikeCollection(size=6, max_rows=4000, seed=7)]


def tuned_compose(A, P, J=SUITE_J):
    cells = split_csr(A, P)
    profiles = matrix_cost_profiles(A, P, cells=cells)
    widths = [
        1 << build_buckets(p, J, num_partitions=P).max_exp
        if p.num_nonempty_rows
        else 1
        for p in profiles
    ]
    return CELLFormat.from_csr(A, num_partitions=P, max_widths=widths, cells=cells)


def reference_cell_execute(fmt, B):
    """The per-bucket ``CELLSpMM.execute`` the partition slab replaced: one
    product and one scatter per bucket, rows in bucket order, folded
    buckets accumulated with ``np.add.at``."""
    B = check_dense_operand(B, fmt.shape[1])
    I, J = fmt.shape[0], B.shape[1]
    C = np.zeros((I, J), dtype=VALUE_DTYPE)
    for _, bucket in fmt.iter_buckets():
        if not bucket.nnz:
            continue
        indptr, indices, data = bucket.entries()
        coo = sp.csr_matrix(
            (data, indices, indptr), shape=(bucket.num_rows, fmt.shape[1])
        ).tocoo()
        slab = sp.csr_matrix(
            (coo.data, (coo.row, coo.col)),
            shape=(bucket.num_rows, fmt.shape[1]),
            dtype=VALUE_DTYPE,
        )
        partial = np.asarray(slab @ B)
        row_ind = bucket.row_ind.astype(np.int64)
        if fmt.needs_atomic(bucket):
            np.add.at(C, row_ind, partial)
        else:
            C[row_ind] += partial
    return C


def _bucket_arrays(b):
    return (b.row_ind, *b.entries())


def _slab_arrays(part):
    s = part.slab
    return part.row_ind, s.indptr, s.indices, s.data


def assert_formats_identical(a, b):
    """Every array of every bucket matches bitwise, dtypes included."""
    assert a.shape == b.shape and a.nnz == b.nnz
    assert len(a.partitions) == len(b.partitions)
    for pa, pb in zip(a.partitions, b.partitions):
        assert (pa.col_start, pa.col_end) == (pb.col_start, pb.col_end)
        assert pa.ranks == pb.ranks and pa.slab.shape == pb.slab.shape
        for xa, xb in zip(_slab_arrays(pa), _slab_arrays(pb)):
            assert xa.dtype == xb.dtype and np.array_equal(xa, xb)
        assert len(pa.buckets) == len(pb.buckets)
        for ba, bb in zip(pa.buckets, pb.buckets):
            assert (ba.width, ba.block_rows, ba.has_folds) == (
                bb.width, bb.block_rows, bb.has_folds
            )
            assert (ba.lo, ba.hi, ba.num_output_rows) == (
                bb.lo, bb.hi, bb.num_output_rows
            )
            for xa, xb in zip(_bucket_arrays(ba), _bucket_arrays(bb)):
                assert xa.dtype == xb.dtype and np.array_equal(xa, xb)


class TestBitIdentity:
    """Vectorized rewrite vs. the reference loops, on seeded matrices."""

    @pytest.mark.parametrize("P", [1, 3, 4])
    def test_tuned_compose_matches_reference(self, collection, P):
        for A in collection:
            assert_formats_identical(
                reference_compose_cell(A, P, SUITE_J), tuned_compose(A, P)
            )

    def test_compose_matches_reference_on_suite(self, matrix_suite):
        from repro.bench.reference import reference_cell_from_csr

        for name, A in matrix_suite.items():
            for P in (1, 2, 3):
                if P > A.shape[1]:
                    continue
                for caps in (None, 4):
                    ref = reference_cell_from_csr(A, num_partitions=P, max_widths=caps)
                    new = CELLFormat.from_csr(A, num_partitions=P, max_widths=caps)
                    assert_formats_identical(ref, new)

    def test_non_canonical_input_matches_reference(self):
        rng = np.random.default_rng(0)
        r = rng.integers(0, 60, size=400)
        c = rng.integers(0, 80, size=400)
        v = rng.standard_normal(400).astype(np.float32)
        A = sp.csr_matrix(sp.coo_matrix((v, (r, c)), shape=(60, 80)))
        A.has_canonical_format = False  # force the canonicalizing path
        for P in (2, 4):
            assert_formats_identical(
                reference_compose_cell(A, P, SUITE_J), tuned_compose(A, P)
            )

    @pytest.mark.parametrize("P", [1, 3, 4])
    def test_cost_profiles_match_reference(self, collection, P):
        for A in collection:
            new = matrix_cost_profiles(A, P)
            ref = reference_matrix_cost_profiles(A, P)
            for pn, pr in zip(new, ref):
                assert pn.num_nonempty_rows == pr.num_nonempty_rows
                assert pn.natural_max_exp == pr.natural_max_exp
                for e in range(pn.natural_max_exp + 1):
                    assert pn.cost(e, SUITE_J, num_partitions=P) == pr.cost(
                        e, SUITE_J, num_partitions=P
                    )

    @pytest.mark.parametrize("P", [1, 4])
    def test_width_search_matches_reference(self, collection, P):
        for A in collection:
            refs = reference_matrix_cost_profiles(A, P)
            news = matrix_cost_profiles(A, P)
            for pr, pn in zip(refs, news):
                if not pr.num_nonempty_rows:
                    continue
                assert (
                    reference_build_buckets(pr, SUITE_J, P)
                    == build_buckets(pn, SUITE_J, num_partitions=P).max_exp
                )

    def test_binary_search_agrees_with_exhaustive(self, collection):
        for A in collection:
            for prof in matrix_cost_profiles(A, 1):
                if not prof.num_nonempty_rows:
                    continue
                b = build_buckets(prof, SUITE_J)
                x = exhaustive_width_search(prof, SUITE_J)
                assert b.cost <= x.cost * (1 + 1e-12)
                assert x.evaluations == prof.natural_max_exp + 1

    @pytest.mark.parametrize("P", [1, 3])
    def test_execute_matches_reference(self, collection, P):
        kernel = CELLSpMM()
        rng = np.random.default_rng(3)
        for A in collection:
            fmt = tuned_compose(A, P)
            B = rng.standard_normal((A.shape[1], 16)).astype(np.float32)
            assert (
                reference_cell_execute(fmt, B).tobytes()
                == kernel.execute(fmt, B).tobytes()
            )

    def test_execute_reads_the_stored_slab(self, collection):
        fmt = tuned_compose(collection[0], 1)
        part = fmt.partitions[0]
        slab = part.slab  # built with the format, before any plan()
        assert all(b.part_slab is slab for b in part.buckets)
        kernel = CELLSpMM()
        B = np.ones((fmt.shape[1], 4), dtype=np.float32)
        C1 = kernel.execute(fmt, B)
        kernel.plan(fmt, 4)
        C2 = kernel.execute(fmt, B)
        assert part.slab is slab
        assert C1.tobytes() == C2.tobytes()


@pytest.fixture(scope="module")
def signed_zero():
    """Generator matrices with every 7th stored value set to -0.0."""
    mats = [
        e.matrix.copy()
        for e in SuiteSparseLikeCollection(size=4, max_rows=2500, seed=21)
    ]
    for A in mats:
        A.data[::7] = -0.0
    return mats


class TestSlabExecuteSweep:
    """Execute over the rank-ordered slab is byte-equal (``-0.0`` signs
    included) to the per-bucket oracle across partitions, width caps that
    force folds, and dense widths."""

    @pytest.mark.parametrize("P", [1, 2, 3, 4])
    @pytest.mark.parametrize("cap", [None, 4, 8])
    def test_execute_byte_equal_to_per_bucket_oracle(self, signed_zero, P, cap):
        kernel = CELLSpMM()
        rng = np.random.default_rng(P * 10 + (cap or 0))
        folds = 0
        for A in signed_zero:
            fmt = CELLFormat.from_csr(A, num_partitions=P, max_widths=cap)
            folds += sum(b.has_folds for _, b in fmt.iter_buckets())
            for J in (1, 16):
                B = rng.standard_normal((A.shape[1], J)).astype(np.float32)
                B[::3] = -0.0
                assert (
                    kernel.execute(fmt, B).tobytes()
                    == reference_cell_execute(fmt, B).tobytes()
                )
        assert cap is None or folds > 0

    def test_patched_plan_executes_like_a_fresh_compose(self, signed_zero):
        kernel = CELLSpMM()
        rng = np.random.default_rng(5)
        A = signed_zero[1]
        plan = compose_cell_plan(A, 3, 32)
        B = rng.standard_normal((A.shape[1], 16)).astype(np.float32)
        for _ in range(3):
            changed, A = random_row_update(A, rng, num_rows=6)
            plan = plan.patch_rows(A, changed)
            fresh = compose_cell_plan(A, 3, 32)
            assert (
                kernel.execute(plan.fmt, B).tobytes()
                == kernel.execute(fresh.fmt, B).tobytes()
            )

    @pytest.mark.parametrize("cap", [None, 4])
    def test_sddmm_matches_per_bucket_computation(self, signed_zero, cap):
        rng = np.random.default_rng(9)
        A = signed_zero[0]
        fmt = CELLFormat.from_csr(A, num_partitions=3, max_widths=cap)
        U = rng.standard_normal((A.shape[0], 8)).astype(np.float32)
        V = rng.standard_normal((A.shape[1], 8)).astype(np.float32)
        got = CELLSDDMM().execute(fmt, (U, V)).tocoo()
        expected = {}
        for _, bucket in fmt.iter_buckets():
            indptr, indices, data = bucket.entries()
            rows = np.repeat(bucket.row_ind.astype(np.int64), np.diff(indptr))
            dots = np.einsum("ij,ij->i", U[rows], V[indices], dtype=np.float32)
            for r, c, v in zip(rows, indices, data * dots):
                expected[int(r), int(c)] = v.tobytes()
        assert len(expected) == got.nnz == A.nnz
        for r, c, v in zip(got.row, got.col, got.data):
            assert expected[int(r), int(c)] == v.tobytes()


class TestPartitionCellsEdgeCases:
    def test_counts_and_starts_cover_all_elements(self, matrix_suite):
        for A in matrix_suite.values():
            for P in (1, 2, 3):
                if P > A.shape[1]:
                    continue
                bounds = partition_bounds(A.shape[1], P)
                counts, starts = partition_cells(A, bounds)
                assert counts.sum() == A.nnz
                for p, (c0, c1) in enumerate(bounds):
                    for r in range(A.shape[0]):
                        n, s = int(counts[r, p]), int(starts[r, p])
                        cols = A.indices[s : s + n]
                        assert ((cols >= c0) & (cols < c1)).all()

    def test_more_partitions_than_columns_rejected(self):
        A = as_csr(sp.csr_matrix(np.ones((4, 3), dtype=np.float32)))
        with pytest.raises(ValueError, match="exceeds matrix columns"):
            CELLFormat.from_csr(A, num_partitions=5)
        with pytest.raises(ValueError, match="exceeds matrix columns"):
            split_csr(A, 5)

    def test_empty_partition_has_no_buckets(self):
        # All nnz in the left half of the columns: partition 1 stays empty.
        dense = np.zeros((6, 8), dtype=np.float32)
        dense[:, :4] = np.arange(24, dtype=np.float32).reshape(6, 4) + 1
        A = as_csr(dense)
        fmt = CELLFormat.from_csr(A, num_partitions=2)
        assert fmt.partitions[1].buckets == []
        assert fmt.partitions[0].nnz == A.nnz
        assert (abs(fmt.to_csr() - A)).nnz == 0

    def test_empty_matrix(self):
        A = sp.csr_matrix((5, 7), dtype=np.float32)
        fmt = CELLFormat.from_csr(A, num_partitions=2)
        assert all(p.buckets == [] for p in fmt.partitions)
        assert fmt.to_csr().nnz == 0

    def test_single_long_row_folds_fully(self):
        # One row far longer than num_partitions * max_width: every chunk
        # folds into the max bucket, one bucket per partition.
        P, W, cols = 2, 4, 64
        dense = np.zeros((3, cols), dtype=np.float32)
        dense[1, :] = np.arange(1, cols + 1)
        A = as_csr(dense)
        fmt = CELLFormat.from_csr(A, num_partitions=P, max_widths=W)
        for part in fmt.partitions:
            assert len(part.buckets) == 1
            bucket = part.buckets[0]
            assert bucket.width == W
            assert bucket.has_folds
            assert bucket.num_rows == (cols // P) // W
            assert (bucket.row_ind == 1).all()
        assert (abs(fmt.to_csr() - A)).nnz == 0

    def test_mismatched_cells_split_rejected(self, matrix_suite):
        A = matrix_suite["power_law"]
        cells = split_csr(A, 2)
        with pytest.raises(ValueError, match="partitions"):
            CELLFormat.from_csr(A, num_partitions=3, cells=cells)
        with pytest.raises(ValueError, match="partitions"):
            matrix_cost_profiles(A, 3, cells=cells)


@st.composite
def seeded_matrices(draw, max_rows=50, max_cols=50):
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, max_cols))
    nnz = draw(st.integers(0, rows * cols // 2))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    r = rng.integers(0, rows, size=nnz)
    c = rng.integers(0, cols, size=nnz)
    v = rng.standard_normal(nnz).astype(np.float32)
    v[v == 0] = 1.0
    return as_csr(sp.csr_matrix((v, (r, c)), shape=(rows, cols)))


class TestRoundTripProperty:
    @settings(max_examples=60, deadline=None)
    @given(A=seeded_matrices(), P=st.integers(1, 4), cap=st.sampled_from([None, 2, 8]))
    def test_from_csr_roundtrips(self, A, P, cap):
        if P > A.shape[1]:
            P = A.shape[1]
        fmt = CELLFormat.from_csr(A, num_partitions=P, max_widths=cap)
        diff = fmt.to_csr() - A
        assert diff.nnz == 0 or abs(diff).max() < 1e-5
        assert fmt.nnz == A.nnz

    @settings(max_examples=40, deadline=None)
    @given(A=seeded_matrices(max_rows=30, max_cols=30), P=st.integers(1, 3))
    def test_matches_reference_compose(self, A, P):
        if P > A.shape[1]:
            P = A.shape[1]
        assert_formats_identical(
            reference_compose_cell(A, P, 32), tuned_compose(A, P, J=32)
        )


@st.composite
def matrices_with_empty_rows(draw):
    A = draw(seeded_matrices(max_rows=40, max_cols=40))
    keep = draw(st.lists(st.booleans(), min_size=A.shape[0], max_size=A.shape[0]))
    return as_csr(sp.diags(np.asarray(keep, dtype=np.float32)) @ A)


class TestPaddingByFormula:
    """A bucket stores no padding; its padded counts come by formula and
    must equal those of the padded arrays the reference builder fills."""

    @settings(max_examples=80, deadline=None)
    @given(
        A=matrices_with_empty_rows(),
        P=st.integers(1, 3),
        cap=st.sampled_from([None, 1, 2, 4]),
    )
    def test_counts_match_padded_reference(self, A, P, cap):
        P = min(P, A.shape[1])
        fmt = CELLFormat.from_csr(A, num_partitions=P, max_widths=cap)
        ref = reference_padded_partitions(A, P, cap)
        assert [len(p.buckets) for p in fmt.partitions] == [len(b) for *_, b in ref]
        for part, (*_, padded) in zip(fmt.partitions, ref):
            for b, r in zip(part.buckets, padded):
                real = r.col != PAD
                assert (b.width, b.block_rows) == (r.width, r.block_rows)
                assert np.array_equal(b.row_ind, r.row_ind)
                assert b.stored_elements == r.col.size
                assert b.footprint_bytes == r.row_ind.nbytes + r.col.nbytes + r.val.nbytes
                assert b.nnz == np.count_nonzero(real)
                assert b.unique_cols == np.unique(r.col[real]).size
                assert b.num_output_rows == np.unique(r.row_ind).size
                assert b.has_folds == r.has_folds
                indptr, indices, data = b.entries()
                assert np.array_equal(np.diff(indptr), real.sum(axis=1))
                for x, y in ((indices, r.col[real]), (data, r.val[real])):
                    assert x.dtype == y.dtype and np.array_equal(x, y)
