"""Tests for the memory-transaction and cache models."""

import numpy as np
import pytest

from repro.gpu.memory import (
    CacheModel,
    atomic_store_bytes,
    coalesced_bytes,
    scattered_bytes,
)


class TestTransactionHelpers:
    def test_coalesced(self):
        assert coalesced_bytes(100) == 400.0
        assert coalesced_bytes(0) == 0.0

    def test_scattered_worst_case_expands_to_sectors(self):
        # fully random: each 4-byte word pulls a 32-byte sector
        assert scattered_bytes(10, locality=0.0) == 10 * 32

    def test_scattered_perfect_locality_is_coalesced(self):
        assert scattered_bytes(10, locality=1.0) == coalesced_bytes(10)

    def test_scattered_monotone_in_locality(self):
        vals = [scattered_bytes(100, locality=l) for l in (0.0, 0.25, 0.5, 1.0)]
        assert vals == sorted(vals, reverse=True)

    def test_scattered_invalid_locality(self):
        with pytest.raises(ValueError):
            scattered_bytes(10, locality=1.5)

    def test_atomic_bytes(self):
        assert atomic_store_bytes(25) == 100.0


class _OneMiBCache(CacheModel):
    """A 1 MiB L2, so small test operands overflow it."""

    L2_BYTES = 1024 * 1024


class TestCacheModel:
    def setup_method(self):
        self.cache = _OneMiBCache(min_miss=0.1)

    def test_no_refs_no_bytes(self):
        z = np.zeros(0)
        assert self.cache.b_traffic_bytes(z, z, J=32, num_b_rows=100) == 0.0

    def test_compulsory_only_when_no_reuse(self):
        # every reference distinct: charged exactly unique * J * 4
        unique = np.array([50.0])
        refs = np.array([50.0])
        out = self.cache.b_traffic_bytes(unique, refs, J=8, num_b_rows=10**6)
        assert out == pytest.approx(50 * 8 * 4)

    def test_resident_operand_pays_once(self):
        # B fits L2: compulsory K + refetches at the miss floor
        unique = np.array([100.0, 100.0])
        refs = np.array([500.0, 500.0])
        out = self.cache.b_traffic_bytes(unique, refs, J=8, num_b_rows=128)
        row = 8 * 4
        expected = 128 * row + (1000 - 128) * row * 0.1
        assert out == pytest.approx(expected)

    def test_streaming_degrades_toward_full_refetch(self):
        # working set 100x the L2: refetch cost approaches full price
        J = 256
        unique = np.array([4096.0])  # 4096 * 1KB = 4 MB >> 1 MB L2
        refs = np.array([40960.0])
        out = self.cache.b_traffic_bytes(unique, refs, J=J, num_b_rows=10**6)
        row = J * 4
        full = refs[0] * row
        assert out > 0.7 * full

    def test_smaller_working_set_cheaper(self):
        J = 128
        refs = np.array([10000.0])
        small = self.cache.b_traffic_bytes(np.array([500.0]), refs, J, 10**6)
        large = self.cache.b_traffic_bytes(np.array([8000.0]), refs, J, 10**6)
        # fewer distinct rows -> fewer compulsory fetches and better reuse
        assert small < large

    def test_partition_window_helps(self):
        # Same traffic pattern, but the reachable B rows fit in L2 when the
        # column partition is narrow (the CELL partitioning mechanism).
        J = 128
        unique = np.array([2000.0] * 4)
        refs = np.array([20000.0] * 4)
        wide = self.cache.b_traffic_bytes(unique, refs, J, num_b_rows=10**6)
        narrow = self.cache.b_traffic_bytes(unique, refs, J, num_b_rows=1024)
        assert narrow < wide

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            self.cache.b_traffic_bytes(np.zeros(2), np.zeros(3), 8, 10)
