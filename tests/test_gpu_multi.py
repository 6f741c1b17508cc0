"""Edge cases of the multi-GPU row decomposition.

Complements ``tests/test_extensions.py`` (which covers scaling and
balance on realistic graphs): these tests pin the degenerate partitions
— all-zero matrices, more shards than rows — and the one-device-per-GPU
contract of :class:`MultiGPUSimulator`.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.formats.csr import CSRFormat
from repro.gpu import multi
from repro.gpu.device import SimulatedDevice
from repro.gpu.multi import MultiGPUSimulator, MultiGPUSpec, partition_rows_by_nnz
from repro.kernels.csr_spmm import RowSplitCSRSpMM
from repro.matrices import power_law_graph


def _empty(rows: int, cols: int = 64) -> sp.csr_matrix:
    return sp.csr_matrix((rows, cols), dtype=np.float32)


def csr_compose(sub, J):
    return CSRFormat.from_csr(sub), RowSplitCSRSpMM()


class TestPartitionEdgeCases:
    def test_zero_nnz_splits_rows_evenly(self):
        # Regression: equal nnz targets used to collapse every cut onto
        # row 0, giving shard 0 all rows and the rest nothing.
        shards = partition_rows_by_nnz(_empty(100), 4)
        assert shards == [(0, 25), (25, 50), (50, 75), (75, 100)]

    def test_zero_nnz_uneven_rows(self):
        shards = partition_rows_by_nnz(_empty(10), 3)
        assert shards[0][0] == 0 and shards[-1][1] == 10
        for (a0, a1), (b0, b1) in zip(shards, shards[1:]):
            assert a1 == b0
        sizes = [r1 - r0 for r0, r1 in shards]
        assert max(sizes) - min(sizes) <= 1

    def test_more_shards_than_rows_clamps(self):
        A = power_law_graph(5, 2, seed=1)
        shards = partition_rows_by_nnz(A, 16)
        assert len(shards) == 5
        assert shards[0][0] == 0 and shards[-1][1] == 5
        for (a0, a1), (b0, b1) in zip(shards, shards[1:]):
            assert a1 == b0

    def test_more_shards_than_rows_zero_nnz(self):
        shards = partition_rows_by_nnz(_empty(3), 8)
        assert shards == [(0, 1), (1, 2), (2, 3)]

    def test_zero_nnz_single_shard(self):
        assert partition_rows_by_nnz(_empty(7), 1) == [(0, 7)]


class _CountingDevice(SimulatedDevice):
    """Device that counts how many measurements it performed."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.calls = 0

    def measure(self, stats):
        self.calls += 1
        return super().measure(stats)


@pytest.fixture
def counting_sim(monkeypatch):
    """Build simulators whose per-GPU devices count their launches."""
    monkeypatch.setattr(multi, "SimulatedDevice", _CountingDevice)
    return lambda num_gpus: MultiGPUSimulator(MultiGPUSpec(num_gpus=num_gpus))


class TestPerShardDevices:
    def test_one_device_per_gpu(self):
        sim = MultiGPUSimulator(MultiGPUSpec(num_gpus=3))
        assert len(sim.devices) == 3
        assert len({id(d) for d in sim.devices}) == 3
        assert all(d.spec is sim.spec.gpu for d in sim.devices)

    def test_shards_measure_on_their_own_device(self, counting_sim):
        sim = counting_sim(4)
        A = power_law_graph(2000, 8, seed=2)
        result = sim.measure(A, 32, csr_compose)
        assert len(result.shard_times_s) == 4
        # every device ran exactly its own shard, not a shared singleton
        assert [d.calls for d in sim.devices] == [1, 1, 1, 1]

    def test_zero_nnz_measures_nothing(self, counting_sim):
        sim = counting_sim(2)
        result = sim.measure(_empty(50), 16, csr_compose)
        assert result.compute_s == 0.0
        assert [d.calls for d in sim.devices] == [0, 0]

    def test_fewer_rows_than_gpus_leaves_devices_idle(self, counting_sim):
        sim = counting_sim(8)
        A = power_law_graph(3, 2, seed=3)
        result = sim.measure(A, 16, csr_compose)
        assert len(result.shard_times_s) == 3
        assert sum(d.calls for d in sim.devices) <= 3
