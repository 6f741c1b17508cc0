"""Tests for the top-level one-call API."""

import numpy as np
import pytest

import repro
from repro.kernels import spmm_reference
from repro.matrices import power_law_graph


@pytest.fixture(scope="module")
def workload():
    A = power_law_graph(600, 8, seed=1)
    B = np.random.default_rng(0).standard_normal((A.shape[1], 16)).astype(np.float32)
    return A, B, spmm_reference(A, B)


@pytest.mark.parametrize(
    "method",
    ["cell", "csr", "sputnik", "dgsparse", "taco", "bcsr", "ell", "sliced-ell"],
)
def test_spmm_all_methods(method, workload):
    A, B, ref = workload
    C, m = repro.spmm(A, B, method=method)
    np.testing.assert_allclose(C, ref, rtol=1e-3, atol=1e-3)
    assert m.time_s > 0


def test_spmm_format_kwargs(workload):
    A, B, ref = workload
    C, m = repro.spmm(A, B, method="cell", num_partitions=2, max_widths=8)
    np.testing.assert_allclose(C, ref, rtol=1e-3, atol=1e-3)


def test_spmm_unknown_method(workload):
    A, B, _ = workload
    with pytest.raises(ValueError):
        repro.spmm(A, B, method="magic")


def test_misspelled_format_option_is_rejected(workload):
    from repro.formats import CELLFormat
    from repro.formats.base import as_csr

    A, B, _ = workload
    with pytest.raises(TypeError, match="num_partition"):
        CELLFormat.from_csr(as_csr(A), num_partition=4)
    with pytest.raises(TypeError, match="num_partition"):
        repro.spmm(A, B, method="cell", num_partition=4)


def test_spmm_accepts_dense_input():
    A = np.eye(5, dtype=np.float32)
    B = np.arange(10, dtype=np.float32).reshape(5, 2)
    C, _ = repro.spmm(A, B, method="csr")
    np.testing.assert_allclose(C, B)


def test_version():
    assert repro.__version__


def _retired_options():
    """Constructor options whose values are fixed properties of the
    schedule or policy a class reproduces (class attributes or module
    constants now)."""
    from repro import kernels
    from repro.core import FormatSelector, LiteForm, PartitionPredictor
    from repro.gpu import CacheModel, FaultPolicy, SimulatedDevice
    from repro.gpu.microsim import DiscreteEventGPU
    from repro.gpu.multi import MultiGPUSimulator, MultiGPUSpec
    from repro.kernels import sddmm, spmv
    from repro.obs import AttributionCollector, SLOEngine
    from repro.serve import ClusterFrontend, FormatBandit, RetryPolicy, SpMMServer
    from repro.serve.cluster import WindowedFrequencySketch
    from repro.serve.metrics import LatencySeries
    from repro.serve.workload import WorkloadSpec

    yield SpMMServer, ("overhead_ewma_alpha", "breaker_threshold")
    yield SpMMServer, ("breaker_cooldown_s", "bandit_retrain_every")
    # the pool size is the length of ``devices``
    yield SpMMServer, ("num_devices",)
    yield RetryPolicy, ("backoff_base_ms", "backoff_factor", "backoff_max_ms", "real_sleep")
    yield ClusterFrontend, ("hot_window", "reroute_on_failure", "hot_min_count")
    # Server and scheduler options a shard now takes from ``make_shard``.
    yield ClusterFrontend, (
        "multi_spec", "device_factory", "cache_bytes_per_shard", "batch",
        "max_wait_ms", "max_queue", "retry", "degrade_on_oom", "speculative",
        "adaptive", "bandit_min_obs", "bandit_explore",
    )
    yield SimulatedDevice, ("timing",)
    yield FaultPolicy, ("latency_spike_factor",)
    yield CacheModel, ("l2_bytes",)
    yield DiscreteEventGPU, ("compute_ipc",)
    yield MultiGPUSpec, ("gpu", "interconnect_gbs", "collective_latency_us")
    yield MultiGPUSimulator, ("devices",)
    yield AttributionCollector, ("capacity", "seed")
    yield SLOEngine, ("tracer",)
    yield LatencySeries, ("max_samples", "seed")
    yield WindowedFrequencySketch, ("window",)
    yield WorkloadSpec, ("J_per_matrix", "gnn_names", "arrival_process", "burst_size")
    yield LiteForm, ("device", "pool")
    yield FormatSelector, ("model",)
    yield PartitionPredictor, ("model",)
    yield FormatBandit, ("decay", "prior_std_ms")
    for cls in (kernels.RowSplitCSRSpMM, kernels.SputnikSpMM, kernels.DgSparseSpMM):
        yield cls, ("rows_per_block", "row_overhead", "cache")
    yield kernels.RowSplitCSRSpMM, ("wave_blocks",)
    yield kernels.SputnikSpMM, ("j_tile",)
    yield kernels.TacoSpMM, ("coord_overhead",)
    yield kernels.ELLSpMM, ("rows_per_block", "cache", "wave_blocks")
    yield kernels.BCSRSpMM, ("cache", "wave_blocks", "dense_tile_efficiency")
    yield spmv.MergeCSRSpMV, ("items_per_block",)
    for cls in (
        kernels.SlicedELLSpMM,
        kernels.CELLSpMM,
        kernels.TacoSpMM,
        sddmm.CSRSDDMM,
        sddmm.CELLSDDMM,
        spmv.ScalarCSRSpMV,
        spmv.VectorCSRSpMV,
    ):
        yield cls, ("cache", "wave_blocks")


@pytest.mark.parametrize(
    "cls,option",
    [(cls, name) for cls, names in _retired_options() for name in names],
    ids=lambda v: getattr(v, "__name__", v),
)
def test_retired_options_are_rejected(cls, option):
    with pytest.raises(TypeError, match=rf"'{option}'|takes no arguments"):
        cls(**{option: None})
