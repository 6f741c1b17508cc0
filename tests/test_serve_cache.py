"""Plan-cache LRU/byte-budget behaviour."""

import pytest

from repro.core import LiteForm, generate_training_data
from repro.matrices import SuiteSparseLikeCollection, power_law_graph
from repro.serve import PlanCache, PlanKey, fingerprint_csr


@pytest.fixture(scope="module")
def liteform():
    coll = SuiteSparseLikeCollection(size=6, max_rows=2500, seed=77)
    return LiteForm().fit(generate_training_data(coll, J_values=(32,)))


@pytest.fixture(scope="module")
def matrices():
    out = {f"k{i}": power_law_graph(300 + 100 * i, 6, seed=i) for i in range(4)}
    out["small"] = power_law_graph(200, 6, seed=9)
    return out


@pytest.fixture(scope="module")
def plans(liteform, matrices):
    # force the fixed-format path so footprints grow monotonically with
    # the matrix size (CELL padding would make eviction math fragile)
    return {
        k: liteform.compose(matrices[k], 32, force_cell=False)
        for k in ("k0", "k1", "k2", "k3")
    }


def _key(A, op="spmm", J=32):
    return PlanKey(fingerprint_csr(A), op, J)


@pytest.fixture(scope="module")
def keys(matrices):
    return {k: _key(A) for k, A in matrices.items()}


class TestLRU:
    def test_hit_miss_counters(self, plans, keys):
        cache = PlanCache(max_bytes=1 << 30)
        assert cache.get(keys["k0"]) is None
        cache.put(keys["k0"], plans["k0"], compose_overhead_s=0.5)
        entry = cache.get(keys["k0"])
        assert entry is not None and entry.plan is plans["k0"]
        assert entry.compose_overhead_s == 0.5
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_eviction_under_byte_budget(self, plans, keys):
        sizes = {k: p.fmt.footprint_bytes for k, p in plans.items()}
        # budget fits exactly the two smallest plans of k0..k2
        budget = sizes["k0"] + sizes["k1"]
        cache = PlanCache(max_bytes=budget)
        cache.put(keys["k0"], plans["k0"])
        cache.put(keys["k1"], plans["k1"])
        assert cache.evictions == 0 and len(cache) == 2
        cache.put(keys["k2"], plans["k2"])
        assert cache.evictions >= 1
        assert cache.total_bytes <= budget
        assert keys["k2"] in cache  # the fresh entry is resident
        assert keys["k0"] not in cache  # the least recently used went first

    def test_get_refreshes_lru_position(self, plans, keys):
        sizes = {k: p.fmt.footprint_bytes for k, p in plans.items()}
        cache = PlanCache(max_bytes=sizes["k0"] + sizes["k1"] + sizes["k2"])
        for k in ("k0", "k1", "k2"):
            cache.put(keys[k], plans[k])
        cache.get(keys["k0"])  # k1 becomes the LRU victim
        cache.put(keys["k3"], plans["k3"])
        assert keys["k0"] in cache
        assert keys["k1"] not in cache

    def test_oversized_plan_rejected(self, plans, keys):
        cache = PlanCache(max_bytes=1)
        assert not cache.put(keys["k0"], plans["k0"])
        assert cache.rejected == 1 and len(cache) == 0

    def test_refresh_same_key_does_not_double_count(self, plans, keys):
        cache = PlanCache(max_bytes=1 << 30)
        cache.put(keys["k0"], plans["k0"])
        cache.put(keys["k0"], plans["k0"])
        assert len(cache) == 1
        assert cache.total_bytes == plans["k0"].fmt.footprint_bytes

    def test_stats_keys(self, plans, keys):
        cache = PlanCache(max_bytes=1 << 30)
        cache.put(keys["k0"], plans["k0"])
        s = cache.stats()
        for key in ("entries", "bytes", "max_bytes", "hits", "misses",
                    "evictions", "rejected", "hit_rate"):
            assert key in s


class TestEvictionControlFlow:
    """put() must stay correct without assertions (python -O)."""

    def test_refresh_with_larger_plan_evicts_others_not_itself(self, plans, keys):
        sizes = {k: p.fmt.footprint_bytes for k, p in plans.items()}
        budget = sizes["k0"] + sizes["k3"] - 1  # k0 + k3 cannot coexist
        cache = PlanCache(max_bytes=budget)
        cache.put(keys["k0"], plans["k0"])
        cache.put(keys["small"], plans["k0"])
        # refreshing keys["small"] with the bigger k3 plan must evict k0, never
        # the entry being inserted
        assert cache.put(keys["small"], plans["k3"])
        assert keys["small"] in cache and keys["k0"] not in cache
        assert cache.total_bytes == sizes["k3"]
        assert cache.total_bytes <= budget

    def test_exact_fit_insert_does_not_evict_fresh_entry(self, plans, keys):
        size = plans["k1"].fmt.footprint_bytes
        cache = PlanCache(max_bytes=size)
        assert cache.put(keys["k1"], plans["k1"])
        assert keys["k1"] in cache and cache.total_bytes == size
        assert cache.evictions == 0


class TestPatternIndex:
    """``newest_of_pattern`` follows entries into and out of the cache."""

    @staticmethod
    def _revalued_keys(matrices):
        """Three keys of k0's pattern: other values, op and J."""
        A = matrices["k0"].copy()
        A.data = A.data * 2
        return [_key(A), _key(matrices["k0"], op="sddmm"), _key(matrices["k0"], J=8)]

    def test_newest_put_wins_across_values_op_and_J(self, plans, keys, matrices):
        cache = PlanCache(max_bytes=1 << 30)
        pattern = keys["k0"].fp.pattern
        assert cache.newest_of_pattern(pattern) is None
        cache.put(keys["k0"], plans["k0"])
        cache.put(keys["k1"], plans["k1"])
        for key in self._revalued_keys(matrices):
            cache.put(key, plans["k0"])
            assert cache.newest_of_pattern(pattern).key == key
        cache.put(keys["k0"], plans["k0"])  # a refresh is the newest put
        assert cache.newest_of_pattern(pattern).key == keys["k0"]
        assert cache.newest_of_pattern(keys["k1"].fp.pattern).key == keys["k1"]
        assert (cache.hits, cache.misses) == (0, 0)

    def test_departed_keys_leave_the_index(self, plans, keys, matrices):
        sizes = {k: p.fmt.footprint_bytes for k, p in plans.items()}
        cache = PlanCache(max_bytes=sizes["k0"] + sizes["k1"])
        pattern = keys["k0"].fp.pattern
        older, newer, _ = self._revalued_keys(matrices)
        cache.put(older, plans["k0"])
        cache.put(newer, plans["k0"])
        cache.pop(newer)
        assert cache.newest_of_pattern(pattern).key == older
        cache.put(keys["k1"], plans["k1"])
        cache.put(keys["k2"], plans["k2"])  # evicts older, then k1
        assert cache.evictions == 2
        assert cache.newest_of_pattern(pattern) is None
        assert cache._by_pattern == {keys["k2"].fp.pattern: {keys["k2"]: None}}
        cache.clear()
        assert cache.newest_of_pattern(keys["k2"].fp.pattern) is None
        assert cache._by_pattern == {}
