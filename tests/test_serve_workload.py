"""Workload generator: determinism, Zipf skew, request plumbing."""

from collections import Counter

import numpy as np
import pytest

from repro.serve import WorkloadSpec, generate_workload, zipf_weights


def _matrix_name(request):
    return request.name.split(":", 1)[1]


class TestZipfWeights:
    def test_normalized_and_decreasing(self):
        w = zipf_weights(20, 1.1)
        assert w.sum() == pytest.approx(1.0)
        assert np.all(np.diff(w) < 0)

    def test_uniform_at_zero_exponent(self):
        w = zipf_weights(8, 0.0)
        np.testing.assert_allclose(w, np.full(8, 1 / 8))

    def test_validation(self):
        with pytest.raises(ValueError):
            zipf_weights(0, 1.0)
        with pytest.raises(ValueError):
            zipf_weights(4, -1.0)


class TestGeneration:
    SPEC = WorkloadSpec(
        num_requests=80, num_matrices=8, max_rows=2500, seed=5,
        J_choices=(32, 64), with_operands=False,
    )

    def test_request_count_and_names(self):
        reqs = generate_workload(self.SPEC)
        assert len(reqs) == 80
        assert all(r.name.startswith("req") for r in reqs)

    def test_deterministic_for_same_spec(self):
        a = generate_workload(self.SPEC)
        b = generate_workload(self.SPEC)
        assert [r.name for r in a] == [r.name for r in b]
        assert [r.J for r in a] == [r.J for r in b]

    def test_seed_changes_trace(self):
        other = WorkloadSpec(
            num_requests=80, num_matrices=8, max_rows=2500, seed=6,
            J_choices=(32, 64), with_operands=False,
        )
        assert [r.name for r in generate_workload(self.SPEC)] != [
            r.name for r in generate_workload(other)
        ]

    def test_zipf_skew_concentrates_traffic(self):
        spec = WorkloadSpec(
            num_requests=300, num_matrices=16, zipf_s=1.3, max_rows=2500,
            seed=7, with_operands=False,
        )
        counts = Counter(_matrix_name(r) for r in generate_workload(spec))
        top = counts.most_common(1)[0][1]
        assert top > 300 / 16 * 2  # hottest matrix well above uniform share

    def test_J_fixed_per_matrix_by_default(self):
        reqs = generate_workload(self.SPEC)
        j_by_matrix = {}
        for r in reqs:
            j_by_matrix.setdefault(_matrix_name(r), set()).add(r.J)
        assert all(len(js) == 1 for js in j_by_matrix.values())

    def test_operands_shared_and_shaped(self):
        spec = WorkloadSpec(
            num_requests=30, num_matrices=4, max_rows=2500, seed=9,
        )
        reqs = generate_workload(spec)
        for r in reqs:
            assert r.B is not None
            assert r.B.shape == (r.matrix.shape[1], r.J)
        by_key = {}
        for r in reqs:
            by_key.setdefault((r.matrix.shape[1], r.J), r.B)
            assert by_key[(r.matrix.shape[1], r.J)] is r.B  # shared, not copied

    def test_deadline_fraction(self):
        spec = WorkloadSpec(
            num_requests=200, num_matrices=4, max_rows=2500, seed=10,
            deadline_ms=5.0, deadline_fraction=0.5, with_operands=False,
        )
        reqs = generate_workload(spec)
        tagged = sum(r.deadline_ms is not None for r in reqs)
        assert 60 <= tagged <= 140  # ~half, seeded
        assert all(r.deadline_ms in (None, 5.0) for r in reqs)

    def test_gnn_standins_in_pool(self):
        reqs = generate_workload(self.SPEC)
        names = {_matrix_name(r) for r in reqs}
        assert any(n.startswith("gnn:") for n in names)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            WorkloadSpec(num_requests=0)
        with pytest.raises(ValueError):
            WorkloadSpec(J_choices=())
        with pytest.raises(ValueError):
            WorkloadSpec(deadline_fraction=1.5)
