"""Tests for the Eq. 5-7 cost model and its incremental profiles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import matrix_cost_profiles, total_cost
from repro.core.cost_model import DEFAULT_ATOMIC_WEIGHT, PartitionCostProfile, bucket_cost
from repro.formats import CELLFormat
from repro.formats.base import as_csr
from repro.formats.cell import RowGroups
from repro.matrices import power_law_graph
import scipy.sparse as sp


class TestBucketCost:
    def test_eq7_formula(self):
        # cost = 2*I1*W + U*J + I1*J
        assert bucket_cost(10, 8, 40, 16) == 2 * 10 * 8 + 40 * 16 + 10 * 16

    def test_atomic_weight_applied(self):
        plain = bucket_cost(10, 8, 40, 16, atomic=False)
        atomic = bucket_cost(10, 8, 40, 16, atomic=True, zero_rows=0)
        assert atomic - plain == pytest.approx((DEFAULT_ATOMIC_WEIGHT - 1.0) * 10 * 16)

    def test_zero_rows_only_charged_when_atomic(self):
        assert bucket_cost(10, 8, 40, 16, atomic=False, zero_rows=100) == bucket_cost(
            10, 8, 40, 16
        )
        assert bucket_cost(10, 8, 40, 16, atomic=True, zero_rows=5) == bucket_cost(
            10, 8, 40, 16, atomic=True
        ) + 5 * 16

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            bucket_cost(-1, 8, 4, 16)
        with pytest.raises(ValueError):
            bucket_cost(1, 0, 4, 16)


class TestProfileMatchesFormat:
    """The incremental profile must agree bucket-for-bucket with a freshly
    built CELLFormat for every cap width — the core invariant that makes
    Algorithm 3 trustworthy without rebuilding formats."""

    @pytest.mark.parametrize("P", [1, 2, 3])
    def test_bucket_summaries(self, P, matrix_suite):
        for name, A in matrix_suite.items():
            if P > A.shape[1]:
                continue
            profiles = matrix_cost_profiles(A, P)
            for cap in (0, 2, 4, 7):
                fmt = CELLFormat.from_csr(A, num_partitions=P, max_widths=1 << cap)
                for part, prof in zip(fmt.partitions, profiles):
                    expected = [
                        (b.width, b.num_rows, b.unique_cols) for b in part.buckets
                    ]
                    assert prof.bucket_summary(cap) == expected, (name, P, cap)

    def test_cap_beyond_natural_is_clamped(self, matrix_suite):
        A = matrix_suite["power_law"]
        prof = matrix_cost_profiles(A, 1)[0]
        huge = prof.natural_max_exp + 5
        assert prof.cost(huge, 32) == prof.cost(prof.natural_max_exp, 32)

    def test_empty_partition(self):
        prof = PartitionCostProfile.from_cells(
            RowGroups.from_lengths(np.zeros(4, dtype=np.int64)),
            np.zeros(4, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
        )
        assert prof.cost(3, 32) == 0.0
        assert prof.num_nonempty_rows == 0


class TestCostProperties:
    def test_cost_positive_for_nonempty(self, matrix_suite):
        for A in matrix_suite.values():
            prof = matrix_cost_profiles(A, 1)[0]
            if prof.num_nonempty_rows:
                assert prof.cost(2, 32) > 0

    def test_cost_scales_with_J_term(self, matrix_suite):
        A = matrix_suite["community"]
        prof = matrix_cost_profiles(A, 1)[0]
        assert prof.cost(3, 256) > prof.cost(3, 32)

    def test_legacy_eq7_never_exceeds_atomic_variant(self, matrix_suite):
        A = matrix_suite["dense_rows"]
        prof = matrix_cost_profiles(A, 1)[0]
        for e in range(prof.natural_max_exp + 1):
            assert prof.cost(e, 64, legacy_eq7=True) <= prof.cost(e, 64)

    def test_multi_partition_output_term_grows(self, matrix_suite):
        A = matrix_suite["community"]
        prof = matrix_cost_profiles(A, 2)[0]
        e = min(3, prof.natural_max_exp)
        assert prof.cost(e, 64, num_partitions=2) > prof.cost(e, 64, num_partitions=1)

    def test_total_cost_sums_partitions(self, matrix_suite):
        A = matrix_suite["uniform"]
        profiles = matrix_cost_profiles(A, 3)
        exps = [min(2, p.natural_max_exp) for p in profiles]
        assert total_cost(profiles, exps, 32) == pytest.approx(
            sum(p.cost(e, 32) for p, e in zip(profiles, exps))
        )

    def test_total_cost_alignment_check(self, matrix_suite):
        profiles = matrix_cost_profiles(matrix_suite["uniform"], 2)
        with pytest.raises(ValueError):
            total_cost(profiles, [1], 32)


class TestCapBucketStatistics:
    def test_i1_counts_folds(self):
        # one row of 20 nnz: at cap 8 it folds into ceil(20/8) = 3 rows
        A = as_csr(sp.csr_matrix((np.ones(20, np.float32), (np.zeros(20, int), np.arange(20))), shape=(3, 32)))
        prof = matrix_cost_profiles(A, 1)[0]
        assert prof.cap_bucket_rows(3) == 3
        assert prof.cap_bucket_rows(5) == 1  # 2^5 = 32 >= 20: no folding

    def test_i2_distinct_rows(self):
        A = as_csr(
            sp.csr_matrix(
                (np.ones(24, np.float32), (np.repeat([0, 1], 12), np.tile(np.arange(12), 2))),
                shape=(2, 16),
            )
        )
        prof = matrix_cost_profiles(A, 1)[0]
        assert prof.cap_bucket_output_rows(2) == 2

    def test_cap_unique_is_union(self):
        A = as_csr(
            sp.csr_matrix(
                (np.ones(6, np.float32), ([0, 0, 0, 1, 1, 1], [0, 1, 2, 1, 2, 3])),
                shape=(2, 8),
            )
        )
        prof = matrix_cost_profiles(A, 1)[0]
        # both rows have exponent 2; union of cols = {0,1,2,3}
        assert prof.cap_bucket_unique(2) == 4


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), P=st.sampled_from([1, 2, 4]))
def test_profile_format_agreement_property(seed, P):
    A = power_law_graph(200, 6, seed=seed)
    profiles = matrix_cost_profiles(A, P)
    for cap in (1, 3, 5):
        fmt = CELLFormat.from_csr(A, num_partitions=P, max_widths=1 << cap)
        for part, prof in zip(fmt.partitions, profiles):
            expected = [(b.width, b.num_rows, b.unique_cols) for b in part.buckets]
            assert prof.bucket_summary(cap) == expected
