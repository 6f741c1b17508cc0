"""Per-partition compose fan-out: bit-identity, the LPT model, plumbing."""

import numpy as np
import pytest

from repro.core import cost_model, parallel, training
from repro.core.parallel import FanoutResult, compose_partitions
from repro.core.pipeline import LiteForm, compose_cell_plan
from repro.formats import cell
from repro.formats.cell import CELLFormat, RowGroups, split_csr
from repro.matrices import SuiteSparseLikeCollection, mixture_matrix, uniform_random_matrix


def _bucket_arrays(b):
    return (b.row_ind, *b.entries())


def _slab_arrays(part):
    s, c = part.slab, part.combine
    return (
        part.order, part.tail_rows, part.fold_rows,
        s.indptr, s.indices, s.data, c.indptr, c.indices, c.data,
    )


def _assert_identical(fmt_a, fmt_b):
    assert fmt_a.shape == fmt_b.shape
    assert fmt_a.footprint_bytes == fmt_b.footprint_bytes
    assert len(fmt_a.partitions) == len(fmt_b.partitions)
    for pa, pb in zip(fmt_a.partitions, fmt_b.partitions):
        assert (pa.col_start, pa.col_end) == (pb.col_start, pb.col_end)
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


class TestBitIdentity:
    def test_matches_compose_cell_plan(self):
        A = uniform_random_matrix(400, 300, 0.03, seed=2)
        plan = compose_cell_plan(A, 2, 128)
        fan = compose_partitions(A, 2, 128)
        assert plan.max_widths == fan.widths
        assert plan.predicted_cost == sum(c for c in fan.costs if c is not None)
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


def _count_groupings(monkeypatch) -> list:
    calls = []
    from_lengths = RowGroups.from_lengths.__func__

    def counting(cls, lengths):
        calls.append(len(lengths))
        return from_lengths(cls, lengths)

    monkeypatch.setattr(RowGroups, "from_lengths", classmethod(counting))
    return calls


class TestSharedGrouping:
    @pytest.mark.parametrize("P", [1, 3])
    def test_rows_grouped_once_per_partition(self, monkeypatch, P):
        """Profile and builder share one row grouping per partition."""
        calls = _count_groupings(monkeypatch)
        A = mixture_matrix(300, avg_degree=8.0, seed=4)
        compose_cell_plan(A, P, 128)
        assert len(calls) == P

    def test_training_splits_once_per_partition_count(self, monkeypatch):
        """Training splits each matrix once per candidate partition count
        and composes every J through ``compose_partitions``."""
        groupings = _count_groupings(monkeypatch)
        splits = []

        def counting_split(A, P):
            splits.append(P)
            return split_csr(A, P)

        for mod in (cell, cost_model, parallel, training):
            if hasattr(mod, "split_csr"):
                monkeypatch.setattr(mod, "split_csr", counting_split)
        coll = SuiteSparseLikeCollection(size=2, max_rows=2000, seed=1)
        assert all(e.matrix.shape[1] >= 32 and e.matrix.nnz for e in coll)
        training.generate_training_data(coll, J_values=(32, 128))
        # 2 matrices x 6 partition counts (1..32); each J composes
        # 1 + 2 + ... + 32 = 63 partitions per matrix.
        assert len(splits) == 12
        assert len(groupings) == 2 * 2 * 63


class TestValidationAndCompaction:
    def test_bad_only_index_raises(self):
        A = uniform_random_matrix(100, 80, 0.05, seed=1)
        with pytest.raises(ValueError):
            compose_partitions(A, 2, 32, only=[2])
        with pytest.raises(ValueError):
            compose_partitions(A, 2, 32, only=[-1])

    @pytest.mark.parametrize(
        "compose",
        [
            lambda A: CELLFormat.from_csr(A, 2, block_multiple=3),
            lambda A: compose_partitions(A, 2, 32, block_multiple=3),
            lambda A: compose_cell_plan(A, 2, 32, block_multiple=3),
            lambda A: LiteForm(block_multiple=3).compose(A, 32, force_cell=True),
        ],
        ids=["from_csr", "compose_partitions", "compose_cell_plan", "LiteForm"],
    )
    def test_block_multiple_must_be_power_of_two(self, compose):
        A = uniform_random_matrix(100, 80, 0.05, seed=1)
        with pytest.raises(ValueError, match="block_multiple"):
            compose(A)

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
