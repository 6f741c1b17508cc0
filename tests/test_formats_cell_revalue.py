"""Re-value: a CELL structure refilled with a same-pattern matrix's values.

The contract under test: ``CELLFormat.revalue(B)`` gathers ``B``'s values
into a copy sharing the structure's index arrays, folds, gather map and
kernel memo, and every output of the copy (SpMM, SpMV, SDDMM, bucket
entries) is byte-equal to that of a format freshly built from ``B``.
"""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.parallel import compose_partitions
from repro.core.pipeline import compose_cell_plan
from repro.formats.cell import CELLFormat
from repro.kernels.cell_spmm import CELLSpMM
from repro.kernels.sddmm import CELLSDDMM, sddmm_reference
from repro.matrices import banded_matrix, power_law_graph, random_row_update

J = 8


def _revalued(A, seed):
    """``A``'s pattern with fresh non-zero values (canonical, float32)."""
    B = A.copy()
    B.data = np.random.default_rng(seed).standard_normal(A.nnz).astype(np.float32) + 4.0
    return B


def _build(A, P, cap):
    """The tuned compose (``cap=None``) or a fixed width cap."""
    if cap is None:
        return compose_partitions(A, P, J).to_format()
    return CELLFormat.from_csr(A, num_partitions=P, max_widths=cap)


def _outputs(fmt):
    I, K = fmt.shape
    rng = np.random.default_rng(5)
    B = rng.standard_normal((K, J)).astype(np.float32)
    x = rng.standard_normal((K, 1)).astype(np.float32)
    U = rng.standard_normal((I, J)).astype(np.float32)
    V = rng.standard_normal((K, J)).astype(np.float32)
    S = CELLSDDMM().execute(fmt, (U, V))
    spmm, spmv = CELLSpMM().execute(fmt, B), CELLSpMM().execute(fmt, x)
    return [spmm.tobytes(), spmv.tobytes(), S.data.tobytes(), S.indices.tobytes(),
            S.indptr.tobytes(), S.indices.dtype, S.indptr.dtype]


@pytest.fixture(scope="module")
def graph():
    A = power_law_graph(300, 6, seed=3)
    assert np.diff(A.indptr).max() > 16  # long rows fold under a cap of 4
    return A


@pytest.mark.parametrize("P", [1, 3])
@pytest.mark.parametrize("cap", [None, 4])
def test_revalued_outputs_equal_fresh_build(graph, P, cap):
    structure = _build(graph, P, cap)
    if cap is not None:
        assert any(p.tail_rows.size for p in structure.partitions)
    B = _revalued(graph, seed=P)
    revalued, fresh = structure.revalue(B), _build(B, P, cap)
    assert revalued.max_widths == fresh.max_widths
    assert _outputs(revalued) == _outputs(fresh)
    for (_, rb), (_, fb) in zip(revalued.iter_buckets(), fresh.iter_buckets()):
        for x, y in zip(rb.entries(), fb.entries()):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
    assert revalued.to_csr().toarray().tobytes() == fresh.to_csr().toarray().tobytes()


def test_revalue_shares_structure_and_leaves_it_unchanged(graph):
    structure = _build(graph, 3, 4)
    before = _outputs(structure)
    copy = structure.revalue(_revalued(graph, seed=8))
    assert copy.kernel_memo is structure.kernel_memo
    assert copy.gather_map is structure.gather_map
    for ps, pc in zip(structure.partitions, copy.partitions):
        assert pc.slab.indices is ps.slab.indices and pc.slab.indptr is ps.slab.indptr
        assert pc.folds is ps.folds and pc.order is ps.order
        assert pc.slab.data is not ps.slab.data
        assert all(b.part_slab is pc.slab for b in pc.buckets)
    assert _outputs(structure) == before


def test_revalue_rejects_another_pattern(graph):
    structure = _build(graph, 1, None)
    other = banded_matrix(graph.shape[0], 2, seed=1)
    with pytest.raises(ValueError):
        structure.revalue(other)


def test_folds_are_built_on_first_use(graph):
    structure = _build(graph, 1, 4)
    folds = structure.partitions[0].folds
    assert "combine" not in vars(folds)
    CELLSpMM().execute(structure, np.ones((graph.shape[1], 2), np.float32))
    assert "combine" in vars(folds)


def _duplicated(seed):
    """Unsorted CSR rows holding duplicate columns (some three times)."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, 20, 300)
    cols = rng.integers(0, 12, 300)
    vals = rng.standard_normal(300).astype(np.float32)
    order = np.lexsort((rng.permutation(300), rows))
    indptr = np.zeros(21, np.int32)
    np.cumsum(np.bincount(rows, minlength=20), out=indptr[1:])
    A = sp.csr_matrix((vals[order], cols[order].astype(np.int32), indptr), shape=(20, 12))
    assert not A.has_canonical_format
    return A


@pytest.mark.parametrize("cap", [None, 2])
def test_sddmm_sums_duplicates_onto_the_canonical_pattern(cap):
    A = _duplicated(seed=cap or 0)
    rng = np.random.default_rng(1)
    U = rng.standard_normal((20, 4)).astype(np.float32)
    V = rng.standard_normal((12, 4)).astype(np.float32)
    S = CELLSDDMM().execute(CELLFormat.from_csr(A, max_widths=cap), (U, V))
    # each stored entry's product, summed per position by scipy's COO sum
    rows = np.repeat(np.arange(20), np.diff(A.indptr))
    dots = np.einsum("ij,ij->i", U[rows], V[A.indices], dtype=np.float32)
    want = sp.csr_matrix((A.data * dots, (rows, A.indices)), shape=A.shape, dtype=np.float32)
    assert S.has_canonical_format
    assert (S.indptr.tobytes(), S.indices.tobytes(), S.data.tobytes()) == (
        want.indptr.tobytes(), want.indices.tobytes(), want.data.tobytes()
    )
    canon = A.copy()
    canon.sum_duplicates()
    np.testing.assert_allclose(S.toarray(), sddmm_reference(canon, U, V).toarray(), rtol=1e-4,
                               atol=1e-5)


def test_patch_rows_on_a_revalued_plan_builds_a_new_structure():
    A = banded_matrix(400, 6, seed=21)
    plan = compose_cell_plan(A, 8, J)
    revalued = dataclasses.replace(plan, fmt=plan.fmt.revalue(_revalued(A, seed=2)))
    before = (_outputs(plan.fmt), _outputs(revalued.fmt))
    rows, B = random_row_update(revalued.fmt.to_csr(), np.random.default_rng(4), 2, band=6)
    patched = revalued.patch_rows(B, rows)
    assert patched.fmt.kernel_memo is not plan.fmt.kernel_memo
    assert not patched.fmt.kernel_memo
    assert 0 < len(patched.incremental.patched) < 8
    assert _outputs(patched.fmt) == _outputs(compose_cell_plan(B, 8, J).fmt)
    assert (_outputs(plan.fmt), _outputs(revalued.fmt)) == before


def test_revalues_plan_each_kernel_at_most_twice(graph, monkeypatch):
    """Twenty re-values of one pattern, each stats() call through a fresh
    kernel instance: plan() runs at most twice per kernel, and the shared
    memo holds one entry per (kernel, J)."""
    calls = {CELLSpMM: 0, CELLSDDMM: 0}
    for cls in calls:
        def counted(self, fmt, width, _plan=cls.plan, _cls=cls):
            calls[_cls] += 1
            return _plan(self, fmt, width)

        monkeypatch.setattr(cls, "plan", counted)
    structure = _build(graph, 3, None)
    for seed in range(20):
        copy = structure.revalue(_revalued(graph, seed))
        CELLSpMM().stats(copy, J)
        CELLSDDMM().stats(copy, J)
    assert calls[CELLSpMM] <= 2 and calls[CELLSDDMM] <= 2
    assert set(structure.kernel_memo) == {(CELLSpMM(), J), (CELLSDDMM(), J)}
    assert CELLSpMM(fused=False) != CELLSpMM()
