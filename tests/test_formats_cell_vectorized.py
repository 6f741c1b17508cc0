"""The vectorized CELL compose/kernel paths are bit-identical to the
pre-vectorization loop implementations kept in :mod:`repro.bench.reference`,
plus edge cases of the bulk partition split and the folding rule."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.bench.reference import (
    reference_build_buckets,
    reference_cell_execute,
    reference_compose_cell,
    reference_matrix_cost_profiles,
    reference_padded_partitions,
)
from repro.core.bucket_search import build_buckets, exhaustive_width_search
from repro.core.cost_model import matrix_cost_profiles
from repro.formats.base import as_csr
from repro.formats.cell import CELLFormat, partition_bounds, partition_cells, split_csr
from repro.formats.ell import PAD
from repro.kernels.cell_spmm import CELLSpMM
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


def _bucket_arrays(b):
    return b.row_ind, b.slab.indptr, b.slab.indices, b.slab.data


def assert_formats_identical(a, b):
    """Every array of every bucket matches bitwise, dtypes included."""
    assert a.shape == b.shape and a.nnz == b.nnz
    assert len(a.partitions) == len(b.partitions)
    for pa, pb in zip(a.partitions, b.partitions):
        assert (pa.col_start, pa.col_end) == (pb.col_start, pb.col_end)
        assert len(pa.buckets) == len(pb.buckets)
        for ba, bb in zip(pa.buckets, pb.buckets):
            assert (ba.width, ba.block_rows, ba.has_folds) == (
                bb.width, bb.block_rows, bb.has_folds
            )
            assert ba.slab.shape == bb.slab.shape
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

    @pytest.mark.parametrize("P", [1, 4])
    def test_all_costs_matches_scalar_cost(self, collection, P):
        for A in collection:
            for prof in matrix_cost_profiles(A, P):
                if not prof.num_nonempty_rows:
                    continue
                costs = prof.all_costs(SUITE_J, num_partitions=P)
                for e in range(prof.natural_max_exp + 1):
                    assert costs[e] == prof.cost(e, SUITE_J, num_partitions=P)

    @pytest.mark.parametrize("P", [1, 3])
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
            assert np.array_equal(reference_cell_execute(fmt, B), kernel.execute(fmt, B))

    def test_execute_reads_the_stored_slab(self, collection):
        fmt = tuned_compose(collection[0], 1)
        _, bucket = next(fmt.iter_buckets())
        slab = bucket.slab  # built with the format, before any plan()
        kernel = CELLSpMM()
        B = np.ones((fmt.shape[1], 4), dtype=np.float32)
        C1 = kernel.execute(fmt, B)
        kernel.plan(fmt, 4)
        C2 = kernel.execute(fmt, B)
        assert bucket.slab is slab
        assert np.array_equal(C1, C2)


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
                assert np.array_equal(np.diff(b.slab.indptr), real.sum(axis=1))
                for x, y in ((b.slab.indices, r.col[real]), (b.slab.data, r.val[real])):
                    assert x.dtype == y.dtype and np.array_equal(x, y)
