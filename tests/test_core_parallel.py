"""Per-partition compose fan-out: bit-identity, the LPT model, plumbing."""

import numpy as np
import pytest

from repro.core.parallel import FanoutResult, compose_partitions
from repro.core.pipeline import compose_cell_plan
from repro.formats.cell import split_csr
from repro.matrices import mixture_matrix, uniform_random_matrix


def _bucket_arrays(b):
    return (b.row_ind, *b.entries())


def _slab_arrays(part):
    s = part.slab
    return part.row_ind, s.indptr, s.indices, s.data


def _assert_identical(fmt_a, fmt_b):
    assert fmt_a.shape == fmt_b.shape
    assert fmt_a.footprint_bytes == fmt_b.footprint_bytes
    assert len(fmt_a.partitions) == len(fmt_b.partitions)
    for pa, pb in zip(fmt_a.partitions, fmt_b.partitions):
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
    def test_matches_compose_cell_plan(self):
        A = uniform_random_matrix(400, 300, 0.03, seed=2)
        plan = compose_cell_plan(A, 2, 128)
        fan = compose_partitions(A, 2, 128)
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


class TestLPTModel:
    def test_modeled_speedup_bounds(self):
        A = mixture_matrix(500, avg_degree=8.0, seed=5)
        fan = compose_partitions(A, 4, 128)
        s = fan.modeled_speedup(4)
        assert 1.0 <= s <= 4.0
        assert fan.modeled_speedup(1) == pytest.approx(1.0)

    def test_modeled_speedup_zero_walls(self):
        fan = FanoutResult(A=None, bounds=[], counts=np.zeros((0, 0)), outcomes=[])
        assert fan.modeled_speedup(4) == 1.0
