"""Fingerprint determinism and collision resistance."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.formats.base import as_csr
from repro.matrices import power_law_graph, uniform_random_matrix
from repro.serve import PlanKey, fingerprint_csr


def _large_matrix(rows: int = 600, row_nnz: int = 500, cols: int = 4096) -> sp.csr_matrix:
    """300,000 non-zeros: ``indices`` and ``data`` are 1.2 MB each."""
    indptr = np.arange(rows + 1, dtype=np.int32) * row_nnz
    indices = np.tile(np.arange(row_nnz, dtype=np.int32) * 2, rows)
    data = np.arange(rows * row_nnz, dtype=np.float32)
    return sp.csr_matrix((data, indices, indptr), shape=(rows, cols))


class TestDeterminism:
    def test_same_matrix_same_fingerprint(self):
        A = power_law_graph(500, 8, seed=1)
        assert fingerprint_csr(A).key == fingerprint_csr(A).key

    def test_copy_same_fingerprint(self):
        A = power_law_graph(500, 8, seed=1)
        assert fingerprint_csr(A).key == fingerprint_csr(A.copy()).key

    def test_key_embeds_shape_and_nnz(self):
        A = uniform_random_matrix(64, 48, 0.05, seed=2)
        fp = fingerprint_csr(A)
        assert fp.rows == 64 and fp.cols == 48 and fp.nnz == A.nnz
        assert fp.key.endswith(f"-64x48-{A.nnz}")

    def test_large_array_is_deterministic(self):
        A = _large_matrix()
        assert fingerprint_csr(A).key == fingerprint_csr(A.copy()).key


class TestCollisionResistance:
    def test_row_permutation_changes_fingerprint(self):
        A = power_law_graph(400, 6, seed=4)
        rng = np.random.default_rng(0)
        perm = rng.permutation(A.shape[0])
        P = as_csr(A[perm])
        assert A.nnz == P.nnz and A.shape == P.shape
        assert fingerprint_csr(A).key != fingerprint_csr(P).key

    def test_column_permutation_changes_fingerprint(self):
        A = uniform_random_matrix(200, 200, 0.05, seed=5)
        perm = np.random.default_rng(1).permutation(A.shape[1])
        P = as_csr(A[:, perm])
        assert fingerprint_csr(A).key != fingerprint_csr(P).key

    def test_value_change_changes_fingerprint(self):
        A = power_law_graph(300, 5, seed=6)
        B = A.copy()
        B.data = B.data.copy()
        B.data[0] += 1.0
        assert fingerprint_csr(A).key != fingerprint_csr(B).key

    def test_value_change_ignored_when_pattern_only(self):
        A = power_law_graph(300, 5, seed=6)
        B = A.copy()
        B.data = B.data.copy()
        B.data[0] += 1.0
        a = fingerprint_csr(A, include_values=False)
        b = fingerprint_csr(B, include_values=False)
        assert a.key == b.key

    def test_moved_nonzero_changes_fingerprint(self):
        dense = np.zeros((10, 10), dtype=np.float32)
        dense[2, 3] = 1.0
        other = np.zeros((10, 10), dtype=np.float32)
        other[2, 4] = 1.0
        assert (
            fingerprint_csr(as_csr(dense)).key
            != fingerprint_csr(as_csr(other)).key
        )

    def test_value_change_in_large_array_changes_key(self):
        """Every byte counts, also in arrays over 1 MiB."""
        A = _large_matrix()
        assert A.data.nbytes > 1 << 20
        for pos in (17_000, 150_001, A.nnz - 1):
            B = A.copy()
            B.data[pos] += 1.0
            assert fingerprint_csr(A).key != fingerprint_csr(B).key

    def test_moved_index_in_large_array_changes_key(self):
        A = _large_matrix()
        assert A.indices.nbytes > 1 << 20
        B = A.copy()
        B.indices[17_000] += 1  # stays sorted, no duplicate
        assert B.has_sorted_indices and B.nnz == A.nnz
        assert fingerprint_csr(A).key != fingerprint_csr(B).key
        assert fingerprint_csr(A).pattern != fingerprint_csr(B).pattern


class TestValidation:
    def test_rejects_non_csr(self):
        A = sp.coo_matrix(np.eye(4, dtype=np.float32))
        with pytest.raises(TypeError):
            fingerprint_csr(A)

    def test_plan_key_string_form_is_stable(self):
        """``str(key)`` is what ring placement, hot-key routing and span
        tags hash and print, so it is pinned byte for byte."""
        key = PlanKey(fingerprint_csr(power_law_graph(100, 4, seed=8)), "sddmm", 16)
        assert str(key) == "8f9d2fb3f936a86c25634447ed668af8-100x100-384/sddmm/J16"
        assert (key.op, key.J) == ("sddmm", 16)
        assert key == PlanKey(key.fp, "sddmm", 16) and hash(key) == hash(
            PlanKey(key.fp, "sddmm", 16)
        )
        with pytest.raises(ValueError, match="unknown op"):
            PlanKey(key.fp, "gemm", 16)
        with pytest.raises(ValueError, match="J must be >= 1"):
            PlanKey(key.fp, "spmm", 0)

    def test_plan_key_varies_with_J(self):
        fp = fingerprint_csr(power_law_graph(100, 4, seed=8))
        assert PlanKey(fp, "spmm", 32) != PlanKey(fp, "spmm", 128)
        with pytest.raises(ValueError):
            PlanKey(fp, "spmm", 0)
