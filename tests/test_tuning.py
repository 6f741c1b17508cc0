"""Tests for the generic composition tuners."""

import numpy as np
import pytest

from repro.matrices import mixture_matrix, power_law_graph
from repro.tuning import (
    ExhaustiveTuner,
    HillClimbTuner,
    RandomSearchTuner,
    cell_candidate_space,
)


@pytest.fixture(scope="module")
def matrix():
    return power_law_graph(1200, 8, seed=9)


class TestCandidateSpace:
    def test_covers_partitions_and_widths(self, matrix):
        space = cell_candidate_space(matrix)
        parts = {p for p, _ in space}
        widths = {w for _, w in space}
        assert 1 in parts and max(parts) >= 8
        assert 1 in widths
        assert all(w & (w - 1) == 0 for w in widths)

    def test_width_cap(self, matrix):
        space = cell_candidate_space(matrix, max_width_cap=16)
        assert max(w for _, w in space) <= 16

    def test_partitions_clamped_to_columns(self):
        import scipy.sparse as sp

        from repro.formats.base import as_csr

        narrow = as_csr(sp.random(200, 4, density=0.3, random_state=0, dtype=np.float32))
        assert max(p for p, _ in cell_candidate_space(narrow)) <= 4


class TestExhaustive:
    def test_finds_global_best(self, matrix, device):
        tuner = ExhaustiveTuner(device=device)
        result = tuner.tune(matrix, 64)
        assert result.num_evaluations == len(cell_candidate_space(matrix))
        assert result.best.time_s == min(r.time_s for r in result.evaluated)

    def test_overhead_accounted(self, matrix, device, monkeypatch):
        monkeypatch.setattr(ExhaustiveTuner, "compile_s", 0.5)
        monkeypatch.setattr(ExhaustiveTuner, "runs_per_candidate", 5)
        tuner = ExhaustiveTuner(device=device)
        result = tuner.tune(matrix, 64)
        assert result.overhead_s >= 0.5 * result.num_evaluations

    def test_build_materializes_winner(self, matrix, device):
        result = ExhaustiveTuner(device=device).tune(matrix, 32)
        fmt = result.build(matrix)
        assert fmt.num_partitions == result.best.num_partitions
        diff = fmt.to_csr() - matrix
        assert diff.nnz == 0 or abs(diff).max() < 1e-5

    def test_empty_matrix_rejected(self, device):
        import scipy.sparse as sp

        from repro.formats.base import as_csr

        with pytest.raises(ValueError):
            ExhaustiveTuner(device=device).tune(as_csr(sp.csr_matrix((4, 4))), 32)

    def test_invalid_J(self, matrix, device):
        with pytest.raises(ValueError):
            ExhaustiveTuner(device=device).tune(matrix, 0)


class TestRandomSearch:
    def test_respects_budget(self, matrix, device):
        result = RandomSearchTuner(budget=5, device=device).tune(matrix, 64)
        assert result.num_evaluations == 5

    def test_deterministic_by_seed(self, matrix, device):
        a = RandomSearchTuner(budget=6, seed=3, device=device).tune(matrix, 64)
        b = RandomSearchTuner(budget=6, seed=3, device=device).tune(matrix, 64)
        assert [(r.num_partitions, r.max_width) for r in a.evaluated] == [
            (r.num_partitions, r.max_width) for r in b.evaluated
        ]

    def test_never_beats_exhaustive(self, matrix, device):
        ex = ExhaustiveTuner(device=device).tune(matrix, 64)
        rnd = RandomSearchTuner(budget=4, seed=1, device=device).tune(matrix, 64)
        assert rnd.best.time_s >= ex.best.time_s - 1e-12
        assert rnd.overhead_s < ex.overhead_s

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            RandomSearchTuner(budget=0)


class TestHillClimb:
    def test_converges_near_exhaustive(self, device):
        A = mixture_matrix(1500, avg_degree=12, seed=5)
        ex = ExhaustiveTuner(device=device).tune(A, 64)
        hc = HillClimbTuner(device=device).tune(A, 64)
        assert hc.best.time_s <= ex.best.time_s * 1.3
        assert hc.num_evaluations <= ex.num_evaluations

    def test_cheaper_than_exhaustive(self, matrix, device):
        ex = ExhaustiveTuner(device=device).tune(matrix, 64)
        hc = HillClimbTuner(device=device).tune(matrix, 64)
        assert hc.overhead_s < ex.overhead_s

    def test_invalid_steps(self):
        # The step budget is a class constant, not a constructor option.
        with pytest.raises(TypeError):
            HillClimbTuner(max_steps=0)
