"""Partition-pool compose fan-out: bit-identity, the LPT model, plumbing."""

import numpy as np
import pytest

from repro.core import LiteForm, generate_training_data
from repro.core.parallel import (
    FanoutResult,
    PoolSpec,
    _compact_cells,
    compose_partitions,
    lpt_makespan,
)
from repro.core.pipeline import compose_cell_plan
from repro.formats.cell import split_csr
from repro.matrices import (
    SuiteSparseLikeCollection,
    mixture_matrix,
    power_law_graph,
    uniform_random_matrix,
)


def _bucket_arrays(b):
    return b.row_ind, b.slab.indptr, b.slab.indices, b.slab.data


def _assert_identical(fmt_a, fmt_b):
    assert fmt_a.shape == fmt_b.shape
    assert fmt_a.footprint_bytes == fmt_b.footprint_bytes
    assert len(fmt_a.partitions) == len(fmt_b.partitions)
    for pa, pb in zip(fmt_a.partitions, fmt_b.partitions):
        assert (pa.col_start, pa.col_end) == (pb.col_start, pb.col_end)
        assert len(pa.buckets) == len(pb.buckets)
        for ba, bb in zip(pa.buckets, pb.buckets):
            assert (ba.width, ba.block_rows, ba.has_folds) == (
                bb.width, bb.block_rows, bb.has_folds
            )
            assert ba.slab.shape == bb.slab.shape
            for xa, xb in zip(_bucket_arrays(ba), _bucket_arrays(bb)):
                assert xa.dtype == xb.dtype and np.array_equal(xa, xb)


class TestPoolSpec:
    def test_defaults(self):
        pool = PoolSpec()
        assert pool.workers == 4 and pool.kind == "thread"
        assert pool.parallel

    def test_validation(self):
        with pytest.raises(ValueError):
            PoolSpec(workers=0)
        with pytest.raises(ValueError):
            PoolSpec(kind="fork")

    def test_serial_and_single_worker_are_not_parallel(self):
        assert not PoolSpec(workers=8, kind="serial").parallel
        assert not PoolSpec(workers=1, kind="thread").parallel


class TestBitIdentity:
    @pytest.mark.parametrize("P", [1, 2, 4])
    def test_thread_pool_matches_serial(self, P):
        A = mixture_matrix(600, avg_degree=10.0, seed=4)
        serial = compose_partitions(A, P, 128)
        pooled = compose_partitions(A, P, 128, pool=PoolSpec(workers=4))
        assert serial.widths == pooled.widths
        assert serial.predicted_cost == pooled.predicted_cost
        _assert_identical(serial.to_format(), pooled.to_format())

    def test_process_pool_matches_serial(self):
        A = power_law_graph(500, 8, seed=9)
        serial = compose_partitions(A, 4, 64)
        pooled = compose_partitions(
            A, 4, 64, pool=PoolSpec(workers=2, kind="process")
        )
        assert serial.widths == pooled.widths
        assert serial.predicted_cost == pooled.predicted_cost
        _assert_identical(serial.to_format(), pooled.to_format())

    def test_matches_compose_cell_plan(self):
        A = uniform_random_matrix(400, 300, 0.03, seed=2)
        plan = compose_cell_plan(A, 2, 128)
        fan = compose_partitions(A, 2, 128, pool=PoolSpec(workers=4))
        assert plan.max_widths == fan.widths
        assert plan.predicted_cost == fan.predicted_cost
        _assert_identical(plan.fmt, fan.to_format())

    def test_only_subset_matches_full(self):
        A = uniform_random_matrix(300, 256, 0.04, seed=6)
        full = compose_partitions(A, 4, 128)
        subset = compose_partitions(A, 4, 128, only=[1, 3])
        assert [o.index for o in subset.outcomes] == [1, 3]
        for o in subset.outcomes:
            ref = full.outcomes[o.index]
            assert o.width == ref.width
            for xa, xb in zip(
                _bucket_arrays(o.partition.buckets[0]),
                _bucket_arrays(ref.partition.buckets[0]),
            ):
                assert np.array_equal(xa, xb)


class TestValidationAndCompaction:
    def test_bad_only_index_raises(self):
        A = uniform_random_matrix(100, 80, 0.05, seed=1)
        with pytest.raises(ValueError):
            compose_partitions(A, 2, 32, only=[2])
        with pytest.raises(ValueError):
            compose_partitions(A, 2, 32, only=[-1])

    def test_mismatched_cells_raises(self):
        A = uniform_random_matrix(100, 80, 0.05, seed=1)
        cells = split_csr(A, 2)
        with pytest.raises(ValueError):
            compose_partitions(A, 4, 32, cells=cells)

    def test_compact_cells_preserves_rows(self):
        A = uniform_random_matrix(60, 50, 0.1, seed=3)
        _, _, counts, starts = split_csr(A, 2)
        lengths, st = counts[:, 1], starts[:, 1]
        idx, dat, new_starts = _compact_cells(lengths, st, A.indices, A.data)
        assert idx.size == dat.size == int(lengths.sum())
        for r in range(A.shape[0]):
            lo, n = int(new_starts[r]), int(lengths[r])
            np.testing.assert_array_equal(
                idx[lo:lo + n], A.indices[int(st[r]):int(st[r]) + n]
            )
            np.testing.assert_array_equal(
                dat[lo:lo + n], A.data[int(st[r]):int(st[r]) + n]
            )

    def test_compact_cells_empty_partition(self):
        lengths = np.zeros(4, dtype=np.int64)
        starts = np.zeros(4, dtype=np.int64)
        idx, dat, new_starts = _compact_cells(
            lengths, starts, np.arange(5, dtype=np.int32),
            np.ones(5, dtype=np.float32),
        )
        assert idx.size == 0 and dat.size == 0
        np.testing.assert_array_equal(new_starts, np.zeros(4, dtype=np.int64))


class TestLPTModel:
    def test_makespan_single_worker_is_sum(self):
        assert lpt_makespan([3.0, 1.0, 2.0], 1) == pytest.approx(6.0)

    def test_makespan_balanced(self):
        # 4 equal tasks on 2 workers -> two per worker.
        assert lpt_makespan([1.0] * 4, 2) == pytest.approx(2.0)

    def test_makespan_dominant_task_is_critical_path(self):
        assert lpt_makespan([10.0, 1.0, 1.0], 4) == pytest.approx(10.0)

    def test_makespan_validation(self):
        with pytest.raises(ValueError):
            lpt_makespan([1.0], 0)

    def test_modeled_speedup_bounds(self):
        A = mixture_matrix(500, avg_degree=8.0, seed=5)
        fan = compose_partitions(A, 4, 128)
        s = fan.modeled_speedup(4)
        assert 1.0 <= s <= 4.0
        assert fan.modeled_speedup(1) == pytest.approx(1.0)

    def test_modeled_speedup_zero_walls(self):
        fan = FanoutResult(A=None, bounds=[], counts=np.zeros((0, 0)), outcomes=[])
        assert fan.modeled_speedup(4) == 1.0


class TestLiteFormPool:
    @pytest.fixture(scope="class")
    def trained(self):
        coll = SuiteSparseLikeCollection(size=5, max_rows=2500, seed=11)
        return generate_training_data(coll, J_values=(32,))

    def test_liteform_with_pool_is_identical(self, trained):
        serial_lf = LiteForm().fit(trained)
        pooled_lf = LiteForm(pool=PoolSpec(workers=4)).fit(trained)
        A = mixture_matrix(800, avg_degree=12.0, seed=8)
        p1 = serial_lf.compose_csr(A, 32, force_cell=True)
        p2 = pooled_lf.compose_csr(A, 32, force_cell=True)
        assert p1.use_cell and p2.use_cell
        assert p1.max_widths == p2.max_widths
        assert p1.predicted_cost == p2.predicted_cost
        _assert_identical(p1.fmt, p2.fmt)
