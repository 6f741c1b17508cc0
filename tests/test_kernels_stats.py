"""Structural-statistics invariants for the SpMM kernels."""

import numpy as np
import pytest

from repro.formats import BCSRFormat, CELLFormat, CSRFormat
from repro.gpu.device import SimulatedDevice, SimulatedOOMError
from repro.kernels import (
    BCSRSpMM,
    CELLSpMM,
    DgSparseSpMM,
    RowSplitCSRSpMM,
    SputnikSpMM,
    TacoSpMM,
)
from repro.kernels.cell_spmm import partition_wave_refs
from repro.matrices import make_gnn_standin, power_law_graph


class TestCSRKernelStats:
    def test_flops_formula(self, matrix_suite):
        A = matrix_suite["power_law"]
        st = RowSplitCSRSpMM().plan(CSRFormat.from_csr(A), 64)
        assert st.flops == pytest.approx(2.0 * A.nnz * 64)

    def test_traffic_scales_with_J(self, matrix_suite):
        A = matrix_suite["community"]
        fmt = CSRFormat.from_csr(A)
        k = RowSplitCSRSpMM()
        b32 = k.plan(fmt, 32).total_load_bytes
        b256 = k.plan(fmt, 256).total_load_bytes
        assert b256 > b32

    def test_c_store_bytes(self, matrix_suite):
        A = matrix_suite["community"]
        st = RowSplitCSRSpMM().plan(CSRFormat.from_csr(A), 64)
        assert st.coalesced_store_bytes == pytest.approx(A.shape[0] * 64 * 4)
        assert st.atomic_store_bytes == 0.0

    def test_sputnik_dispatch_is_lpt(self, matrix_suite):
        A = matrix_suite["power_law"]
        fmt = CSRFormat.from_csr(A)
        assert SputnikSpMM().plan(fmt, 32).lpt_dispatch
        assert not RowSplitCSRSpMM().plan(fmt, 32).lpt_dispatch

    def test_sputnik_output_tiling_multiplies_blocks(self, matrix_suite):
        A = matrix_suite["power_law"]
        fmt = CSRFormat.from_csr(A)
        class Sputnik64(SputnikSpMM):
            J_TILE = 64

        k = Sputnik64()
        n_small = k.plan(fmt, 64).num_blocks
        n_large = k.plan(fmt, 256).num_blocks
        assert n_large == 4 * n_small

    def test_single_launch_tuned_kernels(self, matrix_suite):
        A = matrix_suite["community"]
        fmt = CSRFormat.from_csr(A)
        assert SputnikSpMM().plan(fmt, 32).num_launches == 1
        assert DgSparseSpMM().plan(fmt, 32).num_launches == 1
        assert RowSplitCSRSpMM().plan(fmt, 32).num_launches == 2  # analysis + compute


class TestTacoStats:
    def test_uniform_blocks(self, matrix_suite):
        A = matrix_suite["power_law"]
        st = TacoSpMM().plan(CSRFormat.from_csr(A), 32)
        # position split: every block except the tail has equal cost
        assert np.allclose(st.block_costs[:-1], st.block_costs[0])

    def test_atomic_output(self, matrix_suite):
        st = TacoSpMM().plan(CSRFormat.from_csr(matrix_suite["community"]), 32)
        assert st.atomic_store_bytes > 0
        assert st.num_launches == 2  # zero-init + compute

    def test_coord_overhead_in_flops(self, matrix_suite):
        A = matrix_suite["community"]
        fmt = CSRFormat.from_csr(A)
        class NoCoordTaco(TacoSpMM):
            COORD_OVERHEAD = 0.0

        base = NoCoordTaco().plan(fmt, 32).flops
        heavy = TacoSpMM().plan(fmt, 32).flops
        assert heavy == pytest.approx(2 * base)


class TestTritonStats:
    def test_flops_include_padding(self, matrix_suite):
        A = matrix_suite["power_law"]
        fmt = BCSRFormat.from_csr(A, block_shape=(8, 8))
        st = BCSRSpMM().plan(fmt, 32)
        assert st.flops == pytest.approx(2.0 * fmt.num_blocks * 64 * 32)
        assert st.flops > 2.0 * A.nnz * 32  # strictly more than the real work

    def test_oom_on_large_sparse_graph(self):
        """BSR conversion of a reddit-scale graph exceeds the (scaled) DRAM."""
        A = make_gnn_standin("reddit", seed=1)
        fmt = BCSRFormat.from_csr(A, block_shape=(16, 16))
        # Scale device capacity by the dataset's down-scale factor (DESIGN.md)
        from repro.gpu.device import V100
        from repro.matrices import GNN_DATASETS

        scale = GNN_DATASETS["reddit"].scale
        dev = SimulatedDevice(
            spec=V100.with_overrides(dram_bytes=V100.dram_bytes // (scale * scale))
        )
        with pytest.raises(SimulatedOOMError):
            BCSRSpMM().measure(fmt, 512, dev)


class TestCELLStats:
    def test_uniform_block_costs_within_bucket(self, matrix_suite):
        A = matrix_suite["power_law"]
        fmt = CELLFormat.from_csr(A, num_partitions=1)
        k = CELLSpMM()
        part = fmt.partitions[0]
        for bucket, wave in zip(part.buckets, partition_wave_refs(part, A.shape[1])):
            st = k._bucket_stats(fmt, bucket, 32, part.num_cols, 0.0, *wave)
            if st.block_costs.size > 1:
                assert np.allclose(st.block_costs[:-1], st.block_costs[0])

    def test_fused_single_launch(self, matrix_suite):
        A = matrix_suite["power_law"]
        fmt = CELLFormat.from_csr(A, num_partitions=1)
        st = CELLSpMM(fused=True).plan(fmt, 32)
        assert st.num_launches == 1  # no atomics -> no zero-init launch

    def test_unfused_one_launch_per_bucket(self, matrix_suite):
        A = matrix_suite["power_law"]
        fmt = CELLFormat.from_csr(A, num_partitions=1)
        n_buckets = sum(1 for _ in fmt.iter_buckets())
        st = CELLSpMM(fused=False).plan(fmt, 32)
        assert st.num_launches == n_buckets

    def test_atomic_configs_pay_zero_init(self, matrix_suite):
        A = matrix_suite["power_law"]
        plain = CELLSpMM().plan(CELLFormat.from_csr(A, num_partitions=1), 32)
        multi = CELLSpMM().plan(CELLFormat.from_csr(A, num_partitions=2), 32)
        assert plain.atomic_store_bytes == 0
        assert multi.atomic_store_bytes > 0
        assert multi.num_launches == plain.num_launches + 1

    def test_flops_include_padding(self, matrix_suite):
        A = matrix_suite["dense_rows"]
        fmt = CELLFormat.from_csr(A, num_partitions=1, max_widths=16)
        st = CELLSpMM().plan(fmt, 32)
        assert st.flops == pytest.approx(2.0 * fmt.stored_elements * 32)

    def test_time_decreases_with_better_width_on_skewed_input(self, device):
        """Natural width on a hub-heavy graph is beaten by a sensible cap."""
        A = power_law_graph(4000, 10, seed=4)
        k = CELLSpMM()
        natural = k.measure(CELLFormat.from_csr(A, num_partitions=1), 64, device).time_s
        capped = k.measure(
            CELLFormat.from_csr(A, num_partitions=1, max_widths=32), 64, device
        ).time_s
        assert capped < natural
