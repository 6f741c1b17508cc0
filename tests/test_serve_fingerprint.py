"""Fingerprint determinism and collision resistance."""

import gc
import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sp

from repro.formats.base import as_csr
from repro.matrices import power_law_graph, uniform_random_matrix
from repro.serve import PlanKey, fingerprint_csr
from repro.serve import fingerprint as fingerprint_module


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
        assert fingerprint_csr(A).pattern == fingerprint_csr(B).pattern

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


def _seen_thrice(A: sp.csr_matrix) -> str:
    """Fingerprint ``A`` three times, so its private copy exists."""
    keys = {fingerprint_csr(A).key for _ in range(3)}
    assert fingerprint_module._seen[id(A)][2] is not None
    (key,) = keys
    return key


class TestRepeatSubmission:
    """A live matrix fingerprinted again is compared with its copy, not
    re-hashed; any in-place change to its bytes gives a fresh copy's key."""

    @staticmethod
    def _assert_rekeyed(A: sp.csr_matrix, old: str, changed: bool = True) -> None:
        key = fingerprint_csr(A).key
        assert key == fingerprint_csr(A.copy()).key
        assert (key != old) is changed

    def test_repeat_skips_the_hash(self, monkeypatch):
        A = power_law_graph(300, 5, seed=6)
        calls = []
        real = fingerprint_module._digest
        monkeypatch.setattr(
            fingerprint_module, "_digest", lambda M: calls.append(1) or real(M)
        )
        keys = {fingerprint_csr(A).key for _ in range(5)}
        assert len(keys) == 1 and len(calls) == 2

    def test_changed_value(self):
        A = power_law_graph(300, 5, seed=6)
        old = _seen_thrice(A)
        A.data[7] += 1.0
        self._assert_rekeyed(A, old)

    def test_zero_sign_flip(self):
        A = power_law_graph(300, 5, seed=6)
        A.data[3] = 0.0
        old = _seen_thrice(A)
        A.data[3] = -0.0
        assert A.data[3] == 0.0  # equal as floats, not as bytes
        self._assert_rekeyed(A, old)

    def test_moved_index(self):
        A = _large_matrix(rows=20, row_nnz=10, cols=64)
        old = _seen_thrice(A)
        A.indices[17] += 1  # stays sorted, no duplicate
        assert A.has_sorted_indices
        self._assert_rekeyed(A, old)

    def test_data_replaced_by_equal_values(self):
        A = power_law_graph(300, 5, seed=6)
        old = _seen_thrice(A)
        A.data = A.data.copy()
        self._assert_rekeyed(A, old, changed=False)

    def test_data_replaced_by_other_dtype(self):
        A = power_law_graph(300, 5, seed=6)
        old = _seen_thrice(A)
        A.data = A.data.astype(np.float64)
        self._assert_rekeyed(A, old)

    def test_matrix_seen_once_holds_no_copy(self):
        A = power_law_graph(300, 5, seed=6)
        fingerprint_csr(A)
        assert fingerprint_module._seen[id(A)][2] is None

    def test_dead_matrix_leaves_no_entry(self):
        A = power_law_graph(300, 5, seed=6)
        _seen_thrice(A)
        ident = id(A)
        del A
        gc.collect()
        assert ident not in fingerprint_module._seen

    def test_threads_get_each_matrix_own_key(self):
        """Threads fingerprinting the same live matrices, and fresh copies
        of them, always get the matrix's key and leave no entry behind."""
        gc.collect()
        before = len(fingerprint_module._seen)
        mats = [power_law_graph(200, 4, seed=s) for s in range(3)]
        want = [fingerprint_csr(M.copy()).key for M in mats]
        errors = []

        def work():
            try:
                for i in range(60):
                    M = mats[i % 3] if i % 2 else mats[i % 3].copy()
                    if fingerprint_csr(M).key != want[i % 3]:
                        errors.append(i)
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and errors == []
        del mats
        gc.collect()
        assert len(fingerprint_module._seen) == before


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
