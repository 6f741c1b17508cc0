"""Plan-cache LRU/byte-budget behaviour."""

import pytest

from repro.core import LiteForm, generate_training_data
from repro.matrices import SuiteSparseLikeCollection, power_law_graph
from repro.serve import PlanCache


@pytest.fixture(scope="module")
def liteform():
    coll = SuiteSparseLikeCollection(size=6, max_rows=2500, seed=77)
    return LiteForm().fit(generate_training_data(coll, J_values=(32,)))


@pytest.fixture(scope="module")
def plans(liteform):
    out = {}
    for i in range(4):
        A = power_law_graph(300 + 100 * i, 6, seed=i)
        # force the fixed-format path so footprints grow monotonically with
        # the matrix size (CELL padding would make eviction math fragile)
        out[f"k{i}"] = liteform.compose(A, 32, force_cell=False)
    return out


class TestLRU:
    def test_hit_miss_counters(self, plans):
        cache = PlanCache(max_bytes=1 << 30)
        assert cache.get("k0") is None
        cache.put("k0", plans["k0"], compose_overhead_s=0.5)
        entry = cache.get("k0")
        assert entry is not None and entry.plan is plans["k0"]
        assert entry.compose_overhead_s == 0.5
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_eviction_under_byte_budget(self, plans):
        sizes = {k: p.fmt.footprint_bytes for k, p in plans.items()}
        # budget fits exactly the two smallest plans of k0..k2
        budget = sizes["k0"] + sizes["k1"]
        cache = PlanCache(max_bytes=budget)
        cache.put("k0", plans["k0"])
        cache.put("k1", plans["k1"])
        assert cache.evictions == 0 and len(cache) == 2
        cache.put("k2", plans["k2"])
        assert cache.evictions >= 1
        assert cache.total_bytes <= budget
        assert "k2" in cache  # the fresh entry is resident
        assert "k0" not in cache  # the least recently used went first

    def test_get_refreshes_lru_position(self, plans):
        sizes = {k: p.fmt.footprint_bytes for k, p in plans.items()}
        cache = PlanCache(max_bytes=sizes["k0"] + sizes["k1"] + sizes["k2"])
        for k in ("k0", "k1", "k2"):
            cache.put(k, plans[k])
        cache.get("k0")  # k1 becomes the LRU victim
        cache.put("k3", plans["k3"])
        assert "k0" in cache
        assert "k1" not in cache

    def test_oversized_plan_rejected(self, plans):
        cache = PlanCache(max_bytes=1)
        assert not cache.put("k0", plans["k0"])
        assert cache.rejected == 1 and len(cache) == 0

    def test_refresh_same_key_does_not_double_count(self, plans):
        cache = PlanCache(max_bytes=1 << 30)
        cache.put("k0", plans["k0"])
        cache.put("k0", plans["k0"])
        assert len(cache) == 1
        assert cache.total_bytes == plans["k0"].fmt.footprint_bytes

    def test_stats_keys(self, plans):
        cache = PlanCache(max_bytes=1 << 30)
        cache.put("k0", plans["k0"])
        s = cache.stats()
        for key in ("entries", "bytes", "max_bytes", "hits", "misses",
                    "evictions", "rejected", "hit_rate"):
            assert key in s


class TestEvictionControlFlow:
    """put() must stay correct without assertions (python -O)."""

    def test_refresh_with_larger_plan_evicts_others_not_itself(self, plans):
        sizes = {k: p.fmt.footprint_bytes for k, p in plans.items()}
        budget = sizes["k0"] + sizes["k3"] - 1  # k0 + k3 cannot coexist
        cache = PlanCache(max_bytes=budget)
        cache.put("k0", plans["k0"])
        cache.put("small", plans["k0"])
        # refreshing "small" with the bigger k3 plan must evict k0, never
        # the entry being inserted
        assert cache.put("small", plans["k3"])
        assert "small" in cache and "k0" not in cache
        assert cache.total_bytes == sizes["k3"]
        assert cache.total_bytes <= budget

    def test_exact_fit_insert_does_not_evict_fresh_entry(self, plans):
        size = plans["k1"].fmt.footprint_bytes
        cache = PlanCache(max_bytes=size)
        assert cache.put("k1", plans["k1"])
        assert "k1" in cache and cache.total_bytes == size
        assert cache.evictions == 0
