"""Additional kernel coverage: traffic models, schedules, hybrid panels."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.baselines.stile import HybridPanelFormat, HybridPanelSpMM, STileBaseline
from repro.formats import CSRFormat, CELLFormat
from repro.kernels import CELLSpMM, RowSplitCSRSpMM, SputnikSpMM, TacoSpMM
import repro.kernels.base as kernels_base
from repro.kernels.base import wave_unique_refs
from repro.kernels.taco_spmm import NNZ_PER_WARP_CHOICES, WARPS_PER_BLOCK_CHOICES, TacoSchedule
from repro.matrices import community_graph, power_law_graph, uniform_random_matrix


class TestWaveUniqueRefs:
    def test_single_wave_totals(self, matrix_suite):
        A = matrix_suite["community"]
        unique, refs = wave_unique_refs(A.indptr, A.indices, A.shape[0], A.shape[1])
        assert unique.size == 1
        assert refs[0] == A.nnz
        assert unique[0] == np.unique(A.indices).size

    def test_per_row_waves(self, matrix_suite):
        A = matrix_suite["tiny"]
        unique, refs = wave_unique_refs(A.indptr, A.indices, 1, A.shape[1])
        lengths = np.diff(A.indptr)
        assert list(refs) == list(lengths)
        # each row's indices are distinct, so unique == refs per row
        assert list(unique) == list(lengths)

    def test_unique_bounded_by_refs(self, matrix_suite):
        for A in matrix_suite.values():
            for rpw in (4, 64):
                unique, refs = wave_unique_refs(A.indptr, A.indices, rpw, A.shape[1])
                assert np.all(unique <= refs)

    def test_empty(self):
        u, r = wave_unique_refs(np.zeros(1, np.int64), np.zeros(0, np.int64), 8, 10)
        assert u.size == 0 and r.size == 0


@st.composite
def wave_inputs(draw):
    """A CSR matrix with empty rows and never-referenced columns, and a
    wave size of one row, a mid-range one, or more than all rows."""
    rows = draw(st.integers(1, 50))
    cols = draw(st.integers(1, 60))
    used = draw(st.integers(1, cols))  # columns >= used are never referenced
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    nnz = int(rng.integers(0, rows * used + 1))
    A = sp.csr_matrix(
        (np.ones(nnz, np.float32), (rng.integers(0, rows, nnz), rng.integers(0, used, nnz))),
        shape=(rows, cols),
    )
    A.sum_duplicates()
    A = sp.diags((rng.random(rows) < 0.7).astype(np.float32)) @ A  # empty rows
    A = sp.csr_matrix(A)
    A.eliminate_zeros()
    rpw = draw(st.sampled_from([1, max(1, rows // 3), rows + draw(st.integers(1, 10))]))
    return A, rpw


class TestStampAgainstSort:
    @settings(max_examples=150, deadline=None)
    @given(wave_inputs())
    def test_stamp_path_equals_sort_path(self, case):
        A, rpw = case
        K = A.shape[1]
        counts = {}
        for path, cells in (("stamp", 10**9), ("sort", 0)):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(kernels_base, "STAMP_CELLS_PER_NNZ", cells)
                counts[path] = wave_unique_refs(A.indptr, A.indices, rpw, K)
        (u_stamp, r_stamp), (u_sort, r_sort) = counts["stamp"], counts["sort"]
        np.testing.assert_array_equal(u_stamp, u_sort)
        np.testing.assert_array_equal(r_stamp, r_sort)
        if A.nnz:
            n_waves = -(-A.shape[0] // rpw)
            waves = [A[w * rpw : (w + 1) * rpw] for w in range(n_waves)]
            assert list(r_stamp) == [w.nnz for w in waves]
            assert list(u_stamp) == [np.unique(w.indices).size for w in waves]
        else:
            assert u_stamp.size == r_stamp.size == 0


class TestTacoScheduleSpace:
    def test_36_points(self):
        space = TacoSchedule.space()
        assert len(space) == 36
        assert len(set(space)) == 36

    def test_grid_contents(self):
        space = TacoSchedule.space()
        assert {s.nnz_per_warp for s in space} == set(NNZ_PER_WARP_CHOICES)
        assert {s.warps_per_block for s in space} == set(WARPS_PER_BLOCK_CHOICES)

    def test_nnz_per_block(self):
        assert TacoSchedule(16, 8).nnz_per_block == 128

    def test_schedules_change_block_structure(self, matrix_suite):
        A = matrix_suite["community"]
        fmt = CSRFormat.from_csr(A)
        small = TacoSpMM(TacoSchedule(4, 1)).plan(fmt, 32)
        large = TacoSpMM(TacoSchedule(128, 32)).plan(fmt, 32)
        assert small.num_blocks > large.num_blocks


class TestLocalityEffects:
    def test_community_locality_reduces_b_traffic(self):
        """Clustered neighborhoods fetch fewer B rows per wave than uniform
        random sparsity at equal nnz — the signal the cache model prices."""
        # B must exceed L2 for reuse differences to show (8000*512*4 = 16MB)
        n, deg, J = 8000, 16, 512
        comm = community_graph(n, deg, num_communities=40, p_in=0.95, seed=1)
        unif = uniform_random_matrix(n, n, density=comm.nnz / n**2, seed=2)
        k = RowSplitCSRSpMM()
        b_comm = k.plan(CSRFormat.from_csr(comm), J).total_load_bytes
        b_unif = k.plan(CSRFormat.from_csr(unif), J).total_load_bytes
        assert b_comm < b_unif

    def test_partitioning_shrinks_cell_b_traffic_on_big_K(self):
        A = community_graph(20000, 40, num_communities=64, seed=3)
        k = CELLSpMM()
        p1 = k.plan(CELLFormat.from_csr(A, num_partitions=1, max_widths=64), 512)
        p8 = k.plan(CELLFormat.from_csr(A, num_partitions=8, max_widths=64), 512)
        assert p8.total_load_bytes < p1.total_load_bytes

    def test_sputnik_swizzle_traffic_order(self):
        """Sputnik's wave traffic is computed on the sorted row order —
        different from the natural-order kernel on a clustered matrix."""
        A = community_graph(3000, 12, num_communities=30, p_in=0.95, seed=4)
        fmt = CSRFormat.from_csr(A)
        nat = RowSplitCSRSpMM().plan(fmt, 128)
        swz = SputnikSpMM().plan(fmt, 128)
        assert nat.total_load_bytes != swz.total_load_bytes


class TestHybridPanels:
    def test_mixed_panel_kinds(self, device, monkeypatch):
        """A matrix with a dense-row region and a uniform region should
        produce both panel kinds."""
        import scipy.sparse as sp

        from repro.formats.base import as_csr
        from repro.matrices import with_dense_rows

        top = uniform_random_matrix(1024, 2048, 0.001, seed=5)
        bottom = with_dense_rows(
            power_law_graph(1024, 20, seed=6), 6, row_density=0.4, seed=7
        )
        bottom = as_csr(bottom[:, :2048].tocsr() if bottom.shape[1] > 2048 else sp.hstack(
            [bottom, sp.csr_matrix((1024, 2048 - bottom.shape[1]), dtype=np.float32)]
        ))
        A = as_csr(sp.vstack([top, bottom]).tocsr())
        monkeypatch.setattr(STileBaseline, "panel_rows", 1024)
        monkeypatch.setattr(STileBaseline, "micro_samples", 1)
        prep = STileBaseline().prepare(A, 64, device)
        kinds = {p.kind for p in prep.fmt.panels}
        assert len(prep.fmt.panels) == 2
        assert kinds <= {"ell", "csr"}

    def test_hybrid_format_roundtrip(self, device, monkeypatch):
        A = power_law_graph(1000, 8, seed=8)
        monkeypatch.setattr(STileBaseline, "panel_rows", 256)
        monkeypatch.setattr(STileBaseline, "micro_samples", 1)
        prep = STileBaseline().prepare(A, 32, device)
        assert isinstance(prep.fmt, HybridPanelFormat)
        diff = prep.fmt.to_csr() - A
        assert diff.nnz == 0 or abs(diff).max() < 1e-5

    def test_hybrid_kernel_rejects_wrong_format(self, matrix_suite):
        with pytest.raises(TypeError):
            HybridPanelSpMM().plan(CSRFormat.from_csr(matrix_suite["tiny"]), 32)

    def test_from_csr_not_supported(self, matrix_suite):
        with pytest.raises(NotImplementedError):
            HybridPanelFormat.from_csr(matrix_suite["tiny"])
