"""Incremental recompose (``ComposePlan.patch_rows``) delta-replay suite.

The contract under test: after any row update, the patched plan is
*bit-identical* to a from-scratch ``compose_cell_plan`` of the updated
matrix — same buckets, same tuned widths, same predicted cost, same
footprint — while rebuilding only the partitions the changed rows store
elements in (before or after the update).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import LiteForm, generate_training_data
from repro.core.pipeline import compose_cell_plan
from repro.formats.cell import touched_partitions
from repro.matrices import (
    SuiteSparseLikeCollection,
    banded_matrix,
    mixture_matrix,
    random_row_update,
    replace_rows,
    uniform_random_matrix,
)


def _bucket_arrays(b):
    return (b.row_ind, *b.entries())


def _slab_arrays(part):
    s, c = part.slab, part.combine
    return (
        part.order, part.tail_rows, part.fold_rows,
        s.indptr, s.indices, s.data, c.indptr, c.indices, c.data,
    )


def assert_plans_identical(patched, full):
    assert patched.use_cell and full.use_cell
    assert patched.max_widths == full.max_widths
    assert patched.num_partitions == full.num_partitions
    assert np.isclose(patched.predicted_cost, full.predicted_cost, rtol=1e-12)
    fa, fb = patched.fmt, full.fmt
    assert fa.shape == fb.shape
    assert fa.footprint_bytes == fb.footprint_bytes
    for pa, pb in zip(fa.partitions, fb.partitions):
        assert (pa.slab.shape, pa.combine.shape) == (pb.slab.shape, pb.combine.shape)
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


class TestDeterministicEdges:
    def _base(self, seed=5):
        return uniform_random_matrix(300, 256, 0.03, seed=seed)

    def test_row_emptying_update(self):
        A = self._base()
        plan = compose_cell_plan(A, 4, 128)
        rows = np.array([0, 7])
        empty = [np.array([], dtype=np.int64)] * 2
        B = replace_rows(A, rows, empty, [np.array([], dtype=np.float32)] * 2)
        patched = plan.patch_rows(B, rows)
        assert_plans_identical(patched, compose_cell_plan(B, 4, 128))

    def test_fold_bucket_changing_growth(self):
        # Grow one row to the full column count: it must spill into the
        # folded max-width bucket, changing that partition's bucket set.
        A = self._base()
        plan = compose_cell_plan(A, 2, 128)
        rng = np.random.default_rng(0)
        cols = np.arange(A.shape[1], dtype=np.int64)
        vals = rng.standard_normal(cols.size).astype(np.float32)
        vals[vals == 0] = 1.0
        B = replace_rows(A, np.array([5]), [cols], [vals])
        patched = plan.patch_rows(B, [5])
        assert patched.incremental.patched == (0, 1)
        assert_plans_identical(patched, compose_cell_plan(B, 2, 128))

    def test_value_only_change_rebuilds_touched_partition(self):
        A = self._base()
        plan = compose_cell_plan(A, 4, 128)
        row = 3
        lo, hi = A.indptr[row], A.indptr[row + 1]
        cols = A.indices[lo:hi].astype(np.int64)
        vals = (A.data[lo:hi] * 2.0).astype(np.float32)
        B = replace_rows(A, np.array([row]), [cols], [vals])
        patched = plan.patch_rows(B, [row])
        assert patched.incremental.patched  # the row's partitions re-ran
        assert_plans_identical(patched, compose_cell_plan(B, 4, 128))

    def test_noop_patch_rebuilds_nothing(self):
        A = self._base()
        plan = compose_cell_plan(A, 4, 128)
        patched = plan.patch_rows(A, np.array([], dtype=np.int64))
        assert patched.incremental.patched == ()
        assert_plans_identical(patched, compose_cell_plan(A, 4, 128))

    def test_locality_skips_unrelated_partitions(self):
        A = banded_matrix(600, 10, fill=0.8, seed=3)
        plan = compose_cell_plan(A, 8, 128)
        rows, B = random_row_update(
            A, np.random.default_rng(1), num_rows=2, band=10
        )
        patched = plan.patch_rows(B, rows)
        assert 0 < len(patched.incremental.patched) < 8
        assert_plans_identical(patched, compose_cell_plan(B, 8, 128))

    def test_non_cell_plan_raises(self):
        coll = SuiteSparseLikeCollection(size=4, max_rows=2500, seed=13)
        lf = LiteForm().fit(generate_training_data(coll, J_values=(32,)))
        A = banded_matrix(300, 2, seed=1)  # CSR-favourable
        plan = lf.compose_csr(A, 32)
        if plan.use_cell:
            pytest.skip("selector unexpectedly chose CELL")
        with pytest.raises(ValueError, match="CELL plan"):
            plan.patch_rows(A, [0])

    def test_shape_change_raises(self):
        A = self._base()
        plan = compose_cell_plan(A, 2, 128)
        B = uniform_random_matrix(301, 256, 0.03, seed=9)
        with pytest.raises(ValueError, match="shape"):
            plan.patch_rows(B, [0])

    def test_out_of_range_row_raises(self):
        A = self._base()
        plan = compose_cell_plan(A, 2, 128)
        with pytest.raises(ValueError, match="out of range"):
            plan.patch_rows(A, [A.shape[0]])


class TestTouchedPartitions:
    def test_union_of_old_and_new(self):
        old = np.zeros((4, 3), dtype=np.int32)
        new = np.zeros((4, 3), dtype=np.int32)
        old[1, 0] = 2  # row 1 had elements in partition 0
        new[1, 2] = 1  # ... and now has them in partition 2
        touched = touched_partitions(old, new, np.array([1]))
        np.testing.assert_array_equal(touched, [0, 2])

    def test_unchanged_rows_do_not_touch(self):
        old = np.ones((4, 3), dtype=np.int32)
        new = np.ones((4, 3), dtype=np.int32)
        assert touched_partitions(old, new, np.array([], dtype=np.int64)).size == 0

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            touched_partitions(
                np.zeros((4, 3), dtype=np.int32),
                np.zeros((4, 2), dtype=np.int32),
                np.array([0]),
            )


@st.composite
def _update_stream(draw):
    seed = draw(st.integers(0, 2**16))
    P = draw(st.sampled_from([1, 2, 4, 8]))
    steps = draw(st.integers(1, 3))
    return seed, P, steps


class TestHypothesisDeltaReplay:
    @settings(max_examples=15, deadline=None)
    @given(_update_stream())
    def test_patch_stream_stays_bit_identical(self, stream):
        seed, P, steps = stream
        rng = np.random.default_rng(seed)
        A = mixture_matrix(240, avg_degree=8.0, seed=seed % 97)
        plan = compose_cell_plan(A, P, 128)
        for _ in range(steps):
            rows, A = random_row_update(
                A, rng, num_rows=3, empty_fraction=0.3, grow_fraction=0.3
            )
            plan = plan.patch_rows(A, rows)
            full = compose_cell_plan(A, P, 128)
            assert_plans_identical(plan, full)
            # The incremental state itself must round-trip: the full
            # plan's counts/widths match what the patch carried forward.
            np.testing.assert_array_equal(
                plan.incremental.counts, full.incremental.counts
            )
            assert plan.incremental.widths == full.incremental.widths
