"""Tests for the benchmark reporting/harness utilities."""

import numpy as np
import pytest

from repro.bench import BenchTable, geomean, scaled_device
from repro.gpu.device import V100


class TestGeomean:
    def test_basic(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)

    def test_ignores_inf_and_nan(self):
        assert geomean([2.0, float("inf"), float("nan"), 8.0]) == pytest.approx(4.0)

    def test_all_invalid(self):
        assert np.isnan(geomean([float("inf")]))

    def test_single(self):
        assert geomean([7.0]) == pytest.approx(7.0)


class TestBenchTable:
    def test_render_contains_rows(self):
        t = BenchTable("demo", ["name", "value"])
        t.add_row("x", 1.5)
        t.add_row("oom", float("inf"))
        t.add_row("nan", float("nan"))
        out = t.render()
        assert "demo" in out and "x" in out
        assert "OOM" in out
        assert "-" in out

    def test_cell_count_validation(self):
        t = BenchTable("demo", ["a", "b"])
        with pytest.raises(ValueError):
            t.add_row("only-one")

    def test_float_formatting(self):
        t = BenchTable("demo", ["v"])
        t.add_row(1234.5)
        t.add_row(0.0001234)
        assert "1.23e+03" in t.render() or "1230" in t.render()


class TestScaledDevice:
    def test_unscaled_dataset(self):
        dev = scaled_device("cora")
        assert dev.spec.dram_bytes == V100.dram_bytes

    def test_scaled_dataset_shrinks_dram(self):
        dev = scaled_device("reddit")
        assert dev.spec.dram_bytes < V100.dram_bytes
