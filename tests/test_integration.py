"""Cross-module integration tests: the full workflow at small scale."""

import numpy as np
import pytest

from repro.baselines import LiteFormBaseline, make_baseline
from repro.core import LiteForm, compose_partitions, generate_training_data
from repro.formats import CELLFormat, CSRFormat
from repro.gpu import SimulatedDevice
from repro.kernels import CELLSpMM, RowSplitCSRSpMM, spmm_reference
from repro.matrices import (
    SuiteSparseLikeCollection,
    make_gnn_standin,
    power_law_graph,
    with_dense_rows,
)


@pytest.fixture(scope="module")
def pipeline():
    coll = SuiteSparseLikeCollection(size=12, max_rows=5000, seed=33)
    data = generate_training_data(coll, J_values=(32, 128))
    return LiteForm().fit(data), data


class TestEndToEnd:
    def test_train_compose_execute_verify(self, pipeline, dense_operand):
        lf, _ = pipeline
        A = power_law_graph(1200, 9, seed=17)
        plan = lf.compose(A, 64)
        B = dense_operand(A.shape[1], 64)
        C, m = lf.run(plan, B)
        np.testing.assert_allclose(C, spmm_reference(A, B), rtol=1e-4, atol=1e-4)
        assert m.time_s > 0
        assert plan.overhead.total_s < 1.0

    def test_composed_cell_beats_csr_on_skewed_input(self, pipeline):
        """The headline behaviour at test scale: on a hub-heavy matrix the
        composed CELL format outruns the cuSPARSE-style CSR kernel."""
        lf, _ = pipeline
        A = with_dense_rows(power_law_graph(6000, 10, seed=3), 3, 0.3, seed=4)
        plan = lf.compose(A, 128, force_cell=True)
        t_cell = lf.measure(plan, 128).time_s
        t_csr = RowSplitCSRSpMM().measure(CSRFormat.from_csr(A), 128, lf.device).time_s
        assert t_cell < t_csr

    def test_cost_model_choice_close_to_measured_best(self, pipeline):
        """Fig. 11 in miniature: Algorithm 3's width is within 20% of the
        simulated-time oracle."""
        lf, _ = pipeline
        A = power_law_graph(4000, 12, seed=5)
        plan = lf.compose(A, 128, force_cell=True)
        t_chosen = lf.measure(plan, 128).time_s
        kernel = CELLSpMM()
        t_best = min(
            kernel.measure(
                CELLFormat.from_csr(A, num_partitions=plan.num_partitions, max_widths=1 << e),
                128,
                lf.device,
            ).time_s
            for e in range(10)
        )
        assert t_chosen <= t_best * 1.2

    def test_selector_agrees_with_measured_labels_in_sample(self, pipeline):
        lf, data = pipeline
        agree = (lf.selector.predict_features(data.format_X) == data.format_y).mean()
        assert agree > 0.75

    def test_gnn_standin_through_baselines(self, pipeline, dense_operand):
        """The Fig. 6 pipeline on the smallest GNN graph with 3 systems."""
        lf, _ = pipeline
        dev = SimulatedDevice()
        A = make_gnn_standin("cora", seed=1)
        B = dense_operand(A.shape[1], 32)
        ref = spmm_reference(A, B)
        times = {}
        for name in ("cusparse", "sputnik", "stile"):
            system = make_baseline(name)
            prep = system.prepare(A, 32, dev)
            C, m = system.execute(prep, B, dev)
            np.testing.assert_allclose(C, ref, rtol=1e-3, atol=1e-3)
            times[name] = m.time_s
        prep = LiteFormBaseline(lf).prepare(A, 32, dev)
        C, m = LiteFormBaseline(lf).execute(prep, B, dev)
        np.testing.assert_allclose(C, ref, rtol=1e-3, atol=1e-3)
        # LiteForm at least competitive with generic CSR on cora
        assert m.time_s < times["cusparse"] * 1.2

    def test_partition_composition_roundtrip_large(self, dense_operand):
        """compose_partitions stays exact on a larger matrix with
        every candidate partition count."""
        A = power_law_graph(3000, 15, seed=8)
        B = dense_operand(A.shape[1], 16)
        ref = spmm_reference(A, B)
        for P in (1, 4, 16):
            fmt = compose_partitions(A, P, 16).to_format()
            C = CELLSpMM().execute(fmt, B)
            np.testing.assert_allclose(C, ref, rtol=1e-4, atol=1e-4)


class TestDeterminism:
    def test_measurements_are_reproducible(self, pipeline):
        """The whole simulated stack is deterministic — same input, same
        femtosecond."""
        lf, _ = pipeline
        A = power_law_graph(800, 6, seed=10)
        t1 = lf.measure(lf.compose(A, 64, force_cell=True), 64).time_s
        t2 = lf.measure(lf.compose(A, 64, force_cell=True), 64).time_s
        assert t1 == t2

    def test_training_data_reproducible(self):
        coll = SuiteSparseLikeCollection(size=3, max_rows=2500, seed=77)
        a = generate_training_data(coll, J_values=(32,))
        b = generate_training_data(coll, J_values=(32,))
        assert [s.label for s in a.format_samples] == [s.label for s in b.format_samples]
        assert [s.cell_time_s for s in a.format_samples] == [
            s.cell_time_s for s in b.format_samples
        ]
