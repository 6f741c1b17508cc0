"""Tests for the discrete-event SIMT micro-simulator."""

import numpy as np
import pytest

from repro.formats import CELLFormat, CSRFormat
from repro.gpu.device import V100
from repro.gpu.microsim import (
    DiscreteEventGPU,
    MemorySubsystem,
    TraceOp,
    cell_traces,
    csr_rowsplit_traces,
    simulate_cell,
    simulate_csr,
)
from repro.matrices import power_law_graph


class _UnitIPCGPU(DiscreteEventGPU):
    """One MAC per SM per cycle, so a compute op's cycles are its amount."""

    COMPUTE_IPC = 1.0


class TestMemorySubsystem:
    def test_latency_plus_service(self):
        mem = MemorySubsystem(bytes_per_cycle=10.0, latency_cycles=100.0)
        done = mem.issue(0.0, 50.0)
        assert done == pytest.approx(5.0 + 100.0)

    def test_serialization(self):
        mem = MemorySubsystem(bytes_per_cycle=10.0, latency_cycles=0.0)
        first = mem.issue(0.0, 100.0)
        second = mem.issue(0.0, 100.0)  # issued concurrently, serialized
        assert second == pytest.approx(first + 10.0)

    def test_idle_gap_not_charged(self):
        mem = MemorySubsystem(bytes_per_cycle=10.0, latency_cycles=0.0)
        mem.issue(0.0, 10.0)
        done = mem.issue(100.0, 10.0)  # pipe long idle
        assert done == pytest.approx(101.0)

    def test_invalid_bandwidth(self):
        with pytest.raises(ValueError):
            MemorySubsystem(0.0, 1.0)


class TestTraceOp:
    def test_validation(self):
        with pytest.raises(ValueError):
            TraceOp("dma", 1.0)
        with pytest.raises(ValueError):
            TraceOp("mem", -1.0)


class TestEventLoop:
    def test_empty(self):
        r = DiscreteEventGPU().run([])
        assert r.cycles == 0.0 and r.blocks == 0

    def test_single_compute_block(self):
        gpu = DiscreteEventGPU()
        r = gpu.run([[TraceOp("compute", 10.0 * gpu.COMPUTE_IPC)]])
        assert r.cycles == pytest.approx(10.0)

    def test_blocks_beyond_slots_queue(self):
        spec = V100.with_overrides(num_sms=1, blocks_per_sm=1)
        gpu = _UnitIPCGPU(spec)
        traces = [[TraceOp("compute", 10.0)] for _ in range(3)]
        r = gpu.run(traces)
        # one slot: strictly serialized
        assert r.cycles == pytest.approx(30.0)

    def test_parallel_slots_overlap(self):
        spec = V100.with_overrides(num_sms=1, blocks_per_sm=4)
        gpu = _UnitIPCGPU(spec)
        traces = [[TraceOp("compute", 10.0)] for _ in range(4)]
        assert gpu.run(traces).cycles == pytest.approx(10.0)

    def test_memory_bound_saturates_pipe(self):
        spec = V100.with_overrides(num_sms=4, blocks_per_sm=4)
        gpu = DiscreteEventGPU(spec)
        traces = [[TraceOp("mem", 1e6)] for _ in range(16)]
        r = gpu.run(traces)
        assert r.memory_utilization > 0.8

    def test_straggler_dominates(self):
        spec = V100.with_overrides(num_sms=2, blocks_per_sm=1)
        gpu = _UnitIPCGPU(spec)
        traces = [[TraceOp("compute", 1.0)] for _ in range(4)]
        traces.append([TraceOp("compute", 1000.0)])
        r = gpu.run(traces)
        assert r.cycles >= 1000.0


class TestFormatTraces:
    def test_csr_trace_count(self, matrix_suite):
        A = matrix_suite["power_law"]
        fmt = CSRFormat.from_csr(A)
        traces = csr_rowsplit_traces(fmt, 16, rows_per_block=4)
        assert len(traces) == -(-A.shape[0] // 4)

    def test_cell_trace_count(self, matrix_suite):
        A = matrix_suite["power_law"]
        fmt = CELLFormat.from_csr(A, num_partitions=1, max_widths=8)
        traces = cell_traces(fmt, 16)
        assert len(traces) == sum(b.num_blocks for _, b in fmt.iter_buckets())

    def test_trace_bytes_account_for_padding(self, matrix_suite):
        A = matrix_suite["dense_rows"]
        fmt = CELLFormat.from_csr(A, num_partitions=1, max_widths=4)
        total_idxval = sum(
            op.amount for tr in cell_traces(fmt, 8) for op in tr if op.kind == "mem"
        )
        assert total_idxval > A.nnz * 8  # padded slots are moved too

    def test_type_validation(self, matrix_suite):
        A = matrix_suite["tiny"]
        with pytest.raises(TypeError):
            csr_rowsplit_traces(CELLFormat.from_csr(A), 8)
        with pytest.raises(TypeError):
            cell_traces(CSRFormat.from_csr(A), 8)


class TestCrossValidation:
    """The reason this module exists: the discrete-event engine must agree
    with the analytical model about which configuration is faster."""

    def test_cell_width_optimum_agrees(self, device):
        """Both engines put the optimal max bucket width in the same place
        (within one doubling) and see the same U-shaped trade-off — the
        Figure 11 property, checked engine-against-engine."""
        A = power_law_graph(1500, 8, seed=5)
        J = 32
        from repro.kernels import CELLSpMM

        micro, analytic = [], []
        for e in range(0, 9):
            fmt = CELLFormat.from_csr(A, num_partitions=1, max_widths=1 << e)
            micro.append(simulate_cell(fmt, J).time_s)
            analytic.append(CELLSpMM().measure(fmt, J, device).time_s)
        assert abs(int(np.argmin(micro)) - int(np.argmin(analytic))) <= 1
        for curve in (micro, analytic):
            # U-shape: both extremes are worse than the interior optimum
            assert curve[0] > min(curve)
            assert curve[-1] > min(curve)

    def test_csr_vs_cell_on_skewed_input(self, device):
        """Both engines agree CELL beats row-split CSR on a hub-heavy
        matrix at a capped width."""
        A = power_law_graph(2000, 10, seed=6)
        J = 32
        csr = CSRFormat.from_csr(A)
        cell = CELLFormat.from_csr(A, num_partitions=1, max_widths=32)
        assert simulate_cell(cell, J).time_s < simulate_csr(csr, J).time_s
