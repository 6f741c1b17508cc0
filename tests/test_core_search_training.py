"""Tests for Algorithm 3 and training-data generation."""

import numpy as np
import pytest

from repro.core import (
    build_buckets,
    compose_partitions,
    exhaustive_width_search,
    generate_training_data,
    matrix_cost_profiles,
)
from repro.core.partition_model import PARTITION_CANDIDATES
from repro.matrices import (
    SuiteSparseLikeCollection,
    mixture_matrix,
    power_law_graph,
    uniform_random_matrix,
)


class TestBucketSearch:
    def test_matches_exhaustive_on_many_matrices(self, matrix_suite):
        for name, A in matrix_suite.items():
            prof = matrix_cost_profiles(A, 1)[0]
            if not prof.num_nonempty_rows:
                continue
            for J in (32, 256):
                alg3 = build_buckets(prof, J)
                best = exhaustive_width_search(prof, J)
                # Algorithm 3 assumes unimodality; allow a tiny slack but the
                # chosen cost must essentially match the optimum.
                assert alg3.cost <= best.cost * 1.05, (name, J)

    def test_logarithmic_evaluations(self):
        A = power_law_graph(2000, 10, seed=3)
        prof = matrix_cost_profiles(A, 1)[0]
        alg3 = build_buckets(prof, 64)
        full = exhaustive_width_search(prof, 64)
        assert alg3.evaluations <= 2 * (prof.natural_max_exp.bit_length() + 1) + 1
        assert alg3.evaluations <= full.evaluations + 2

    def test_result_width_property(self):
        A = mixture_matrix(1000, seed=2)
        prof = matrix_cost_profiles(A, 1)[0]
        r = build_buckets(prof, 128)
        assert r.max_width == 1 << r.max_exp
        assert 0 <= r.max_exp <= prof.natural_max_exp

    def test_invalid_J(self):
        A = power_law_graph(100, 4, seed=0)
        prof = matrix_cost_profiles(A, 1)[0]
        with pytest.raises(ValueError):
            build_buckets(prof, 0)
        with pytest.raises(ValueError):
            exhaustive_width_search(prof, -1)

    def test_uniform_matrix_prefers_natural_width(self):
        """With no skew, capping below the natural width only adds folds."""
        A = uniform_random_matrix(500, 500, 0.01, seed=1)
        prof = matrix_cost_profiles(A, 1)[0]
        r = build_buckets(prof, 64)
        assert r.max_exp >= prof.natural_max_exp - 1


class TestComposeCell:
    def test_widths_respect_partitions(self):
        A = mixture_matrix(800, seed=4)
        fmt = compose_partitions(A, 4, 64).to_format()
        assert fmt.num_partitions == 4
        diff = fmt.to_csr() - A
        assert diff.nnz == 0 or abs(diff).max() < 1e-5

    def test_per_partition_widths_can_differ(self):
        # heavy columns on the left half only -> partition caps should differ
        import scipy.sparse as sp
        from repro.formats.base import as_csr

        rng = np.random.default_rng(0)
        left = sp.random(400, 200, density=0.2, random_state=1)
        right = sp.random(400, 200, density=0.002, random_state=2)
        A = as_csr(sp.hstack([left, right]).tocsr().astype(np.float32))
        fmt = compose_partitions(A, 2, 64).to_format()
        assert fmt.max_widths[0] != fmt.max_widths[1]


class TestTrainingData:
    @pytest.fixture(scope="class")
    def data(self):
        coll = SuiteSparseLikeCollection(size=10, max_rows=4000, seed=7)
        return generate_training_data(coll, J_values=(32, 128))

    def test_sample_counts(self, data):
        assert len(data.format_samples) == 10
        assert len(data.partition_samples) == 20  # 10 matrices x 2 widths

    def test_feature_shapes(self, data):
        assert data.format_X.shape == (10, 7)
        assert data.partition_X.shape == (20, 8)

    def test_labels_well_formed(self, data):
        assert data.format_y.dtype == np.bool_
        assert set(np.unique(data.partition_y)) <= set(PARTITION_CANDIDATES)

    def test_label_rule_consistency(self, data):
        for s in data.format_samples:
            assert s.label == (s.fixed_time_s / s.cell_time_s > 1.1)

    def test_best_partition_is_argmin(self, data):
        for s in data.partition_samples:
            best = min(s.times_by_partition, key=s.times_by_partition.get)
            assert s.best_partitions == best

    def test_accepts_tuples(self):
        A = power_law_graph(300, 5, seed=1)
        data = generate_training_data([("m0", A)], J_values=(32,))
        assert data.format_samples[0].name == "m0"

    def test_merged_with(self, data):
        merged = data.merged_with(data)
        assert len(merged.format_samples) == 2 * len(data.format_samples)
