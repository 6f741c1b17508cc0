"""Plan-cache LRU/byte-budget behaviour and spill/warm-start round trips."""

import pickle

import pytest

from repro.core import LiteForm, generate_training_data
from repro.matrices import SuiteSparseLikeCollection, power_law_graph
from repro.serve import PlanCache, PlanKey, fingerprint_csr
from repro.serve.plan_cache import CACHE_MAGIC


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


class TestSpill:
    def test_save_load_round_trip(self, tmp_path, plans):
        cache = PlanCache(max_bytes=1 << 30)
        for k, p in plans.items():
            cache.put(k, p, compose_overhead_s=0.1)
        path = tmp_path / "cache.pkl"
        cache.save(path)
        warmed = PlanCache.load(path)
        assert set(warmed.keys()) == set(plans)
        assert warmed.hits == 0 and warmed.misses == 0  # warm-start isn't traffic
        entry = warmed.get("k1")
        assert entry.compose_overhead_s == pytest.approx(0.1)
        assert entry.plan.fmt.to_csr().nnz == plans["k1"].fmt.to_csr().nnz

    def test_load_rejects_non_bundle(self, tmp_path):
        path = tmp_path / "junk.pkl"
        with path.open("wb") as fh:
            pickle.dump([1, 2, 3], fh)
        with pytest.raises(ValueError, match="not a saved plan-cache bundle"):
            PlanCache.load(path)

    def test_load_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "old.pkl"
        # v1 (pre-op string keys) and v2 (op-segmented string keys) spills
        # are not migrated to PlanKey-keyed bundles.
        for magic in ("repro-plancache-v0", "repro-plancache-v1", "repro-plancache-v2"):
            with path.open("wb") as fh:
                pickle.dump({"magic": magic, "max_bytes": 1 << 20, "entries": []}, fh)
            with pytest.raises(ValueError, match="incompatible cache tag"):
                PlanCache.load(path)
            assert CACHE_MAGIC != magic

    def test_load_leaves_current_magic_keys_untouched(self, tmp_path, plans):
        """A spill round-trips its PlanKey keys unchanged."""
        fp = fingerprint_csr(power_law_graph(300, 6, seed=0))
        keys = [PlanKey(fp, "sddmm", 16), PlanKey(fp, "spmm", 32)]
        cache = PlanCache(max_bytes=1 << 30)
        for key, plan in zip(keys, plans.values()):
            cache.put(key, plan)
        path = tmp_path / "v3.pkl"
        cache.save(path)
        warmed = PlanCache.load(path)
        assert warmed.keys() == keys
        assert [str(k) for k in warmed.keys()] == [
            f"{fp.key}/sddmm/J16", f"{fp.key}/spmm/J32"
        ]

    def test_load_keeps_saved_budget_when_unspecified(self, tmp_path, plans):
        cache = PlanCache(max_bytes=12345678)
        for k, p in plans.items():
            cache.put(k, p)
        path = tmp_path / "cache.pkl"
        cache.save(path)
        assert PlanCache.load(path).max_bytes == 12345678
        assert PlanCache.load(path, max_bytes=None).max_bytes == 12345678

    def test_load_rejects_explicit_invalid_budget(self, tmp_path, plans):
        """Regression: ``max_bytes=0`` is falsy but is an explicit
        override, not "use the saved budget" — it must raise the same
        ValueError the constructor raises everywhere else."""
        cache = PlanCache(max_bytes=1 << 30)
        for k, p in plans.items():
            cache.put(k, p)
        path = tmp_path / "cache.pkl"
        cache.save(path)
        with pytest.raises(ValueError, match="max_bytes must be >= 1"):
            PlanCache.load(path, max_bytes=0)
        with pytest.raises(ValueError, match="max_bytes must be >= 1"):
            PlanCache.load(path, max_bytes=-4)

    def test_load_respects_smaller_budget(self, tmp_path, plans):
        cache = PlanCache(max_bytes=1 << 30)
        for k, p in plans.items():
            cache.put(k, p)
        path = tmp_path / "cache.pkl"
        cache.save(path)
        smallest = min(p.fmt.footprint_bytes for p in plans.values())
        warmed = PlanCache.load(path, max_bytes=smallest)
        assert warmed.total_bytes <= smallest
        assert len(warmed) <= 1

    def test_load_into_smaller_budget_does_not_pollute_counters(self, tmp_path, plans):
        """Regression: warm-start evictions/rejections are not traffic."""
        cache = PlanCache(max_bytes=1 << 30)
        for k, p in plans.items():
            cache.put(k, p)
        path = tmp_path / "cache.pkl"
        cache.save(path)
        # loading into a budget fitting only the smallest plan forces the
        # put() loop to evict/reject — none of which is request traffic
        smallest = min(p.fmt.footprint_bytes for p in plans.values())
        warmed = PlanCache.load(path, max_bytes=smallest)
        assert warmed.evictions == 0
        assert warmed.rejected == 0
        assert warmed.hits == 0 and warmed.misses == 0

    def test_save_load_round_trip_smaller_budget_entries_usable(self, tmp_path, plans):
        """Surviving entries of a shrunken warm start still serve plans."""
        cache = PlanCache(max_bytes=1 << 30)
        for k, p in plans.items():
            cache.put(k, p, compose_overhead_s=0.2)
        path = tmp_path / "cache.pkl"
        cache.save(path)
        sizes = {k: p.fmt.footprint_bytes for k, p in plans.items()}
        budget = sizes["k2"] + sizes["k3"]  # room for the two loaded last
        warmed = PlanCache.load(path, max_bytes=budget)
        assert warmed.total_bytes <= budget
        assert len(warmed) >= 1
        survivor = warmed.keys()[-1]  # most recently loaded survives
        entry = warmed.get(survivor)
        assert entry is not None
        assert entry.compose_overhead_s == pytest.approx(0.2)
        assert entry.plan.fmt.to_csr().nnz == plans[survivor].fmt.to_csr().nnz


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
