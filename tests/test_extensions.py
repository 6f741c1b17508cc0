"""Tests for the extension features: CLI, persistence, multi-GPU SpMM."""

import json

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.core import LiteForm, generate_training_data
from repro.core.persistence import load_liteform, save_liteform
from repro.formats import CSRFormat
from repro.gpu.multi import (
    MultiGPUSimulator,
    MultiGPUSpec,
    liteform_compose_fn,
    partition_rows_by_nnz,
)
from repro.kernels import RowSplitCSRSpMM
from repro.matrices import (
    SuiteSparseLikeCollection,
    power_law_graph,
    write_matrix_market,
)


@pytest.fixture(scope="module")
def small_liteform():
    coll = SuiteSparseLikeCollection(size=8, max_rows=3000, seed=55)
    return LiteForm().fit(generate_training_data(coll, J_values=(32,)))


class TestPersistence:
    def test_roundtrip(self, tmp_path, small_liteform):
        path = tmp_path / "models.pkl"
        save_liteform(small_liteform, path)
        loaded = load_liteform(path)
        A = power_law_graph(500, 6, seed=1)
        original = small_liteform.compose(A, 32)
        restored = loaded.compose(A, 32)
        assert original.use_cell == restored.use_cell
        assert original.num_partitions == restored.num_partitions
        assert original.max_widths == restored.max_widths

    def test_unfitted_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_liteform(LiteForm(), tmp_path / "x.pkl")

    def test_bad_file_rejected(self, tmp_path):
        import pickle

        path = tmp_path / "junk.pkl"
        path.write_bytes(pickle.dumps({"not": "a model"}))
        with pytest.raises(ValueError):
            load_liteform(path)


class TestRowPartitioning:
    def test_covers_all_rows(self):
        A = power_law_graph(1000, 8, seed=2)
        shards = partition_rows_by_nnz(A, 4)
        assert shards[0][0] == 0 and shards[-1][1] == A.shape[0]
        for (a0, a1), (b0, b1) in zip(shards, shards[1:]):
            assert a1 == b0

    def test_balances_nonzeros(self):
        A = power_law_graph(4000, 10, seed=3)
        shards = partition_rows_by_nnz(A, 4)
        nnz = [A[r0:r1].nnz for r0, r1 in shards]
        assert max(nnz) < 1.6 * (A.nnz / 4)

    def test_single_shard(self):
        A = power_law_graph(100, 4, seed=4)
        assert partition_rows_by_nnz(A, 1) == [(0, 100)]

    def test_invalid(self):
        A = power_law_graph(100, 4, seed=4)
        with pytest.raises(ValueError):
            partition_rows_by_nnz(A, 0)


class TestMultiGPU:
    @staticmethod
    def csr_compose(sub, J):
        return CSRFormat.from_csr(sub), RowSplitCSRSpMM()

    def test_compute_scales_down_with_gpus(self):
        A = power_law_graph(20_000, 16, seed=5)
        t1 = MultiGPUSimulator(MultiGPUSpec(num_gpus=1)).measure(A, 128, self.csr_compose)
        t4 = MultiGPUSimulator(MultiGPUSpec(num_gpus=4)).measure(A, 128, self.csr_compose)
        assert t4.compute_s < t1.compute_s
        assert t1.broadcast_s == 0.0 and t4.broadcast_s > 0.0

    def test_communication_limits_small_inputs(self):
        """On a tiny matrix, broadcast/gather dominates and multi-GPU loses
        — the standard strong-scaling crossover."""
        A = power_law_graph(500, 6, seed=6)
        t1 = MultiGPUSimulator(MultiGPUSpec(num_gpus=1)).measure(A, 64, self.csr_compose)
        t8 = MultiGPUSimulator(MultiGPUSpec(num_gpus=8)).measure(A, 64, self.csr_compose)
        assert t8.total_s > t1.total_s

    def test_balance_metric(self):
        A = power_law_graph(8000, 10, seed=7)
        r = MultiGPUSimulator(MultiGPUSpec(num_gpus=4)).measure(A, 64, self.csr_compose)
        assert r.balance < 2.0  # nnz-balanced shards stay comparable

    def test_liteform_compose_fn(self, small_liteform):
        A = power_law_graph(3000, 10, seed=8)
        sim = MultiGPUSimulator(MultiGPUSpec(num_gpus=2))
        r = sim.measure(A, 32, liteform_compose_fn(small_liteform))
        assert r.total_s > 0
        assert len(r.shard_times_s) == 2

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            MultiGPUSpec(num_gpus=0)


class TestCLI:
    def test_info_on_standin(self, capsys):
        assert cli_main(["info", "gnn:cora"]) == 0
        out = capsys.readouterr().out
        assert "CELL natural" in out and "CSR" in out

    def test_compose_json(self, tmp_path, capsys, small_liteform):
        models = tmp_path / "m.pkl"
        save_liteform(small_liteform, models)
        A = power_law_graph(400, 6, seed=9)
        mtx = tmp_path / "a.mtx"
        write_matrix_market(A, mtx)
        assert cli_main(["compose", str(mtx), "--models", str(models), "--json", "-J", "64"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["matrix"]["nnz"] == A.nnz
        assert payload["J"] == 64
        assert "simulated_time_ms" in payload

    def test_train_then_compose(self, tmp_path, capsys):
        models = tmp_path / "trained.pkl"
        assert cli_main(["train", str(models), "--train-size", "4", "--max-rows", "2500"]) == 0
        assert models.exists()
        assert cli_main(["compose", "gnn:cora", "--models", str(models)]) == 0
        assert "use_cell" in capsys.readouterr().out

    def test_missing_matrix_file(self):
        with pytest.raises(SystemExit):
            cli_main(["info", "/nonexistent/file.mtx"])
