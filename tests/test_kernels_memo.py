"""The per-format kernel-stats memo and the memos that feed it.

``SpMMKernel.stats`` plans each ``(kernel, format, J)`` once; the device
memoizes each record's timing; CELL buckets keep their CSR slab.  Every memoized answer must equal the parent computation
(a fresh ``plan()`` + ``repro.gpu.timing.estimate``) field for field, survive
``patch_rows``, leave fault injection's draw order alone, hand out
read-only records, and stay small beside the plan it rides on.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import LiteForm, generate_training_data
from repro.core.pipeline import compose_cell_plan
from repro.formats import BCSRFormat, CELLFormat, CSRFormat, ELLFormat, SlicedELLFormat
from repro.gpu import FaultPolicy, FaultyDevice, SimulatedDevice
from repro.gpu.device import DeviceLostError, SimulatedOOMError
from repro.gpu.stats import KernelStats, PackedStats
from repro.gpu.timing import estimate
from repro.kernels.bcsr_spmm import BCSRSpMM
from repro.kernels.cell_spmm import CELLSpMM
from repro.kernels.csr_spmm import DgSparseSpMM, RowSplitCSRSpMM, SputnikSpMM
from repro.kernels.ell_spmm import ELLSpMM, SlicedELLSpMM
from repro.kernels.sddmm import CELLSDDMM, CSRSDDMM
from repro.kernels.spmv import MergeCSRSpMV, ScalarCSRSpMV, VectorCSRSpMV
from repro.kernels.taco_spmm import TacoSpMM
from repro.matrices import banded_matrix, random_row_update
from repro.serve.adaptive import build_arm_plan

#: ``(format class, build kwargs, kernel class)`` for every kernel family.
KERNELS = [
    (CELLFormat, {"num_partitions": 2}, CELLSpMM),
    (CSRFormat, {}, RowSplitCSRSpMM),
    (CSRFormat, {}, SputnikSpMM),
    (CSRFormat, {}, DgSparseSpMM),
    (CSRFormat, {}, TacoSpMM),
    (BCSRFormat, {}, BCSRSpMM),
    (ELLFormat, {}, ELLSpMM),
    (SlicedELLFormat, {}, SlicedELLSpMM),
    (CELLFormat, {"num_partitions": 2}, CELLSDDMM),
    (CSRFormat, {}, CSRSDDMM),
    (CSRFormat, {}, ScalarCSRSpMV),
    (CSRFormat, {}, VectorCSRSpMV),
    (CSRFormat, {}, MergeCSRSpMV),
]

#: Operand widths: J = 1, 32, 128, and a fused launch of 3 requests at 32.
WIDTHS = (1, 32, 128, 3 * 32)


def _ids(entry):
    return entry[2].__name__


def assert_stats_equal(a: KernelStats, b: KernelStats) -> None:
    for f in dataclasses.fields(KernelStats):
        if not f.compare:
            continue
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype, f.name
            assert np.array_equal(x, y), f.name
        else:
            assert x == y, f.name


def _build(fmt_cls, kwargs, A):
    if "num_partitions" in kwargs and kwargs["num_partitions"] > A.shape[1]:
        kwargs = {}
    return fmt_cls.from_csr(A, **kwargs)


@pytest.mark.parametrize("entry", KERNELS, ids=_ids)
def test_memoized_measure_equals_fresh_plan(entry, matrix_suite):
    fmt_cls, kwargs, kernel_cls = entry
    device = SimulatedDevice()
    for name, A in matrix_suite.items():
        fmt = _build(fmt_cls, kwargs, A)
        kernel = kernel_cls()
        for J in WIDTHS:
            # planned, planned and memoized, then served from both memos
            runs = [kernel.measure(fmt, J, device) for _ in range(3)]
            fresh = kernel_cls().plan(fmt, J)
            expected = estimate(fresh, device.spec)
            for m in runs:
                assert_stats_equal(m.stats, fresh)
                assert m.breakdown == expected, (name, J)
                assert m.time_s == expected.total_s


@pytest.mark.parametrize("entry", KERNELS, ids=_ids)
def test_memoized_run_equals_fresh_plan(entry, matrix_suite):
    fmt_cls, kwargs, kernel_cls = entry
    device = SimulatedDevice()
    rng = np.random.default_rng(11)
    for A in matrix_suite.values():
        fmt = _build(fmt_cls, kwargs, A)
        kernel = kernel_cls()
        I, K = A.shape
        if kernel_cls in (CELLSDDMM, CSRSDDMM):
            operand = (
                rng.standard_normal((I, 32)).astype(np.float32),
                rng.standard_normal((K, 32)).astype(np.float32),
            )
            J = 32
        elif kernel_cls.__name__.endswith("SpMV"):
            operand, J = rng.standard_normal(K).astype(np.float32), 1
        else:
            operand, J = rng.standard_normal((K, 32)).astype(np.float32), 32
        (C1, m1), _, (C2, m2) = [kernel.run(fmt, operand, device) for _ in range(3)]
        fresh = kernel_cls().plan(fmt, J)
        assert_stats_equal(m1.stats, fresh)
        assert_stats_equal(m2.stats, fresh)
        assert m1.time_s == m2.time_s == estimate(fresh, device.spec).total_s
        if isinstance(C1, np.ndarray):
            assert np.array_equal(C1, C2)
        else:
            assert (C1 != C2).nnz == 0


def test_fused_width_has_its_own_entry(matrix_suite):
    fmt = CELLFormat.from_csr(matrix_suite["power_law"])
    kernel = CELLSpMM()
    kernel.stats(fmt, 32)
    kernel.stats(fmt, 96)
    assert set(fmt.kernel_memo) == {(kernel, 32), (kernel, 96)}
    assert kernel.stats(fmt, 96).flops == 3 * kernel.stats(fmt, 32).flops


def test_handed_out_stats_are_read_only(matrix_suite):
    fmt = CELLFormat.from_csr(matrix_suite["community"])
    stats = CELLSpMM().stats(fmt, 32)
    assert stats.block_costs.size
    with pytest.raises(ValueError):
        stats.block_costs[0] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        stats.flops = 0.0


def test_plan_launched_once_keeps_no_memo(matrix_suite):
    fmt = CELLFormat.from_csr(matrix_suite["power_law"], num_partitions=2)
    kernel, device = CELLSpMM(), SimulatedDevice()
    kernel.measure(fmt, 32, device)
    assert list(fmt.kernel_memo.values()) == [None]
    kernel.measure(fmt, 32, device)
    assert _memo_bytes(fmt) > 0


@pytest.mark.parametrize(
    "costs",
    [
        np.zeros(0),
        np.full(7, 3.0),
        np.random.default_rng(0).standard_normal(5000),
        np.repeat(np.arange(300.0), 3),
    ],
    ids=["empty", "uniform", "distinct", "300-values"],
)
def test_packed_stats_round_trip(costs):
    stats = KernelStats(flops=1.0, block_costs=costs, label="x", num_launches=2)
    packed = PackedStats(stats)
    out = packed.unpack()
    assert_stats_equal(out, stats)
    assert out.timings is packed.unpack().timings is stats.timings
    assert packed.nbytes <= max(costs.nbytes, 8)


def test_every_record_is_read_only():
    costs = np.ones(4)
    stats = KernelStats(block_costs=costs)
    with pytest.raises(ValueError):
        stats.block_costs[0] = 2.0
    costs[0] = 2.0  # the caller's own array stays writable


def test_plan_stays_pure(matrix_suite):
    """plan() builds a new record every call; only stats() memoizes."""
    fmt = CELLFormat.from_csr(matrix_suite["power_law"], num_partitions=2)
    kernel = CELLSpMM()
    assert kernel.plan(fmt, 32) is not kernel.plan(fmt, 32)
    assert not fmt.kernel_memo


@pytest.mark.parametrize("kernel_cls", [CELLSpMM, CELLSDDMM])
def test_patched_plan_stats_equal_fresh_compose(kernel_cls):
    A = banded_matrix(400, 6, seed=21)
    plan = compose_cell_plan(A, 8, 128)
    kernel = kernel_cls()
    for J in (32, 32, 128):
        kernel.stats(plan.fmt, J)  # memoize stats on the plan being patched
    rows, B = random_row_update(A, np.random.default_rng(4), num_rows=2, band=6)
    patched = plan.patch_rows(B, rows)
    full = compose_cell_plan(B, 8, 128)
    reused = {id(b) for _, b in plan.fmt.iter_buckets()}
    assert any(id(b) in reused for _, b in patched.fmt.iter_buckets())
    assert not patched.fmt.kernel_memo
    for J in (32, 128):
        assert_stats_equal(kernel_cls().stats(patched.fmt, J), kernel_cls().plan(full.fmt, J))


def _fault_trace(measure, calls: int = 120) -> list:
    out = []
    for _ in range(calls):
        try:
            out.append(measure().time_s)
        except SimulatedOOMError:
            out.append("oom")
        except DeviceLostError:
            out.append("lost")
    return out


def test_faulty_device_draw_order_unchanged(matrix_suite):
    """A seeded FaultyDevice injects the same OOM/spike/death sequence
    whether every launch plans afresh or the memos serve it."""
    policy = FaultPolicy(
        transient_oom_rate=0.1, death_rate=0.01, latency_spike_rate=0.2, seed=9
    )
    fmt = CELLFormat.from_csr(matrix_suite["power_law"], num_partitions=2)
    kernel = CELLSpMM()
    fresh_dev, memo_dev = FaultyDevice(faults=policy), FaultyDevice(faults=policy)
    fresh = _fault_trace(lambda: fresh_dev.measure(CELLSpMM().plan(fmt, 32)))
    memo = _fault_trace(lambda: kernel.measure(fmt, 32, memo_dev))
    assert "oom" in fresh and "lost" in fresh
    assert memo == fresh
    assert (memo_dev.injected_ooms, memo_dev.injected_spikes, memo_dev.launches) == (
        fresh_dev.injected_ooms,
        fresh_dev.injected_spikes,
        fresh_dev.launches,
    )


def test_timing_memo_is_per_spec(matrix_suite):
    fmt = CSRFormat.from_csr(matrix_suite["power_law"])
    kernel = RowSplitCSRSpMM()
    v100 = SimulatedDevice()
    slow = SimulatedDevice(spec=v100.spec.with_overrides(mem_bandwidth_gbs=300.0))
    t_v100 = kernel.measure(fmt, 64, v100).time_s
    t_slow = kernel.measure(fmt, 64, slow).time_s
    assert t_slow > t_v100
    assert kernel.measure(fmt, 64, v100).time_s == t_v100


def test_oom_check_runs_on_every_call(matrix_suite):
    fmt = CSRFormat.from_csr(matrix_suite["power_law"])
    kernel = RowSplitCSRSpMM()
    tiny = SimulatedDevice(spec=SimulatedDevice().spec.with_overrides(dram_bytes=1024))
    for _ in range(3):
        with pytest.raises(SimulatedOOMError):
            kernel.measure(fmt, 32, tiny)


# ----------------------------------------------------------------------
# Memo bytes beside the cache entry's accounted size


def _memo_bytes(fmt) -> int:
    return sum(p.nbytes for p in fmt.kernel_memo.values() if p is not None)


@pytest.fixture(scope="module")
def liteform():
    """The model the serving benchmark fits, so plans match its entries."""
    from perfbench.harness import training_collection

    return LiteForm().fit(generate_training_data(training_collection(), J_values=(32, 128)))


def test_memo_bytes_under_one_percent_of_entry(liteform):
    """Each zipf-hot pool matrix's cache entry (the composed plan, and the
    forced-CELL plan) carries memos under 1% of its accounted bytes; the
    fixed-format bandit arms stay under 2% (at most one byte per block)."""
    from perfbench.workloads import _zipf_pool

    device = SimulatedDevice()
    for A, J in _zipf_pool():
        plans = [(liteform.compose_csr(A, J), 0.01)]
        plans += [
            (build_arm_plan(liteform, A, J, arm), 0.01 if arm == "cell" else 0.02)
            for arm in ("cell", "csr", "bcsr")
        ]
        for plan, bound in plans:
            B = np.ones((A.shape[1], J), np.float32)
            for _ in range(3):  # a miss and two hits
                plan.kernel.run(plan.fmt, B, device)
            size = plan.fmt.footprint_bytes
            assert 0 < _memo_bytes(plan.fmt) < bound * size, (A.shape, J, plan.kernel.name)
