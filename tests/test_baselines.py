"""Tests for the baseline systems (Section 7 comparison harness)."""

import numpy as np
import pytest

from repro.baselines import (
    FIG6_BASELINES,
    LiteFormBaseline,
    SparseTIRBaseline,
    STileBaseline,
    TacoBaseline,
    make_baseline,
)
from repro.core import LiteForm, generate_training_data
from repro.kernels import spmm_reference
from repro.matrices import SuiteSparseLikeCollection, mixture_matrix, power_law_graph


@pytest.fixture(scope="module")
def lf():
    coll = SuiteSparseLikeCollection(size=10, max_rows=4000, seed=21)
    return LiteForm().fit(generate_training_data(coll, J_values=(32, 128)))


@pytest.fixture(scope="module")
def workload():
    A = mixture_matrix(1500, avg_degree=14, seed=9)
    B = np.random.default_rng(1).standard_normal((A.shape[1], 32)).astype(np.float32)
    return A, B, spmm_reference(A, B)


class TestRegistry:
    def test_all_names_constructible(self):
        for name in FIG6_BASELINES:
            assert make_baseline(name).name == name

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            make_baseline("cusparse2")


class TestCorrectness:
    @pytest.mark.parametrize("name", FIG6_BASELINES)
    def test_baseline_matches_reference(self, name, workload, device):
        A, B, ref = workload
        b = make_baseline(name)
        prep = b.prepare(A, B.shape[1], device)
        C, m = b.execute(prep, B, device)
        np.testing.assert_allclose(C, ref, rtol=1e-3, atol=1e-3, err_msg=name)
        assert m.time_s > 0

    def test_liteform_baseline(self, lf, workload, device):
        A, B, ref = workload
        b = LiteFormBaseline(lf)
        prep = b.prepare(A, B.shape[1], device)
        C, _ = b.execute(prep, B, device)
        np.testing.assert_allclose(C, ref, rtol=1e-3, atol=1e-3)


class TestTuners:
    def test_taco_picks_best_schedule(self, workload, device):
        A, B, _ = workload
        prep = TacoBaseline().prepare(A, 32, device)
        assert prep.config["schedules_tried"] == 36
        # the chosen schedule's time is what measure() reports
        t = TacoBaseline().measure(prep, 32, device).time_s
        assert t > 0

    def test_sparsetir_searches_whole_space(self, workload, device):
        A, B, _ = workload
        bl = SparseTIRBaseline()
        prep = bl.prepare(A, 32, device)
        assert prep.config["candidates"] == len(bl.candidate_space(A))
        assert prep.config["num_partitions"] >= 1

    def test_sparsetir_overhead_counts_trials(self, workload, device, monkeypatch):
        A, B, _ = workload
        monkeypatch.setattr(SparseTIRBaseline, "compile_s", 1.0)
        monkeypatch.setattr(SparseTIRBaseline, "runs_per_candidate", 10)
        bl = SparseTIRBaseline()
        prep = bl.prepare(A, 32, device)
        # at least compile_s per candidate
        assert prep.construction_overhead_s >= prep.config["candidates"] * 1.0

    def test_sparsetir_beats_or_ties_untuned_cell(self, workload, device):
        """Exhaustive tuning can only improve on any single hyb config."""
        from repro.formats import CELLFormat
        from repro.kernels import CELLSpMM

        A, _, _ = workload
        prep = SparseTIRBaseline().prepare(A, 32, device)
        tuned = CELLSpMM(fused=False).measure(prep.fmt, 32, device).time_s
        naive = CELLSpMM(fused=False).measure(
            CELLFormat.from_csr(A, num_partitions=1), 32, device
        ).time_s
        assert tuned <= naive * 1.001

    def test_stile_panels_cover_matrix(self, workload, device, monkeypatch):
        A, _, _ = workload
        monkeypatch.setattr(STileBaseline, "panel_rows", 256)
        prep = STileBaseline().prepare(A, 32, device)
        total_rows = sum(p.fmt.shape[0] for p in prep.fmt.panels)
        assert total_rows == A.shape[0]
        assert prep.config["panels"] == -(-A.shape[0] // 256)

    def test_stile_microbenchmark_overhead(self, workload, device, monkeypatch):
        A, _, _ = workload
        monkeypatch.setattr(STileBaseline, "micro_setup_s", 0.1)
        monkeypatch.setattr(STileBaseline, "panel_rows", 128)
        monkeypatch.setattr(STileBaseline, "micro_samples", 1)
        t_cheap = STileBaseline().prepare(A, 32, device).construction_overhead_s
        monkeypatch.setattr(STileBaseline, "micro_samples", 8)
        t_rich = STileBaseline().prepare(A, 32, device).construction_overhead_s
        assert t_rich > t_cheap

    def test_stile_invalid_panel_rows(self):
        # The panel height is a class constant, not a constructor option.
        with pytest.raises(TypeError):
            STileBaseline(panel_rows=0)


class TestOverheadOrdering:
    def test_fig8_ordering(self, lf, workload, device):
        """LiteForm's construction overhead is orders of magnitude below the
        auto-tuning systems (the Figure 8 claim)."""
        A, B, _ = workload
        lo = LiteFormBaseline(lf).prepare(A, 32, device).construction_overhead_s
        tir = SparseTIRBaseline().prepare(A, 32, device).construction_overhead_s
        stile = STileBaseline().prepare(A, 32, device).construction_overhead_s
        assert tir > 10 * lo
        assert stile > 10 * lo

    def test_fixed_formats_cheap_construction(self, workload, device):
        A, B, _ = workload
        for name in ("cusparse", "sputnik", "dgsparse"):
            prep = make_baseline(name).prepare(A, 32, device)
            assert prep.construction_overhead_s < 1.0


class TestTritonOOM:
    def test_oom_propagates(self, device):
        from repro.gpu.device import SimulatedDevice, SimulatedOOMError, V100

        A = power_law_graph(4000, 20, seed=3)
        tiny_dev = SimulatedDevice(spec=V100.with_overrides(dram_bytes=10**6))
        b = make_baseline("triton")
        prep = b.prepare(A, 128, tiny_dev)
        with pytest.raises(SimulatedOOMError):
            b.measure(prep, 128, tiny_dev)
