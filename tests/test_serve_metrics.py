"""Serving metrics: bounded LatencySeries and the registry migration."""

import numpy as np
import pytest

from repro.obs import MetricsRegistry
from repro.serve.metrics import LatencySeries, ServerMetrics


def _capped(max_samples: int) -> LatencySeries:
    """A series whose reservoir holds ``max_samples`` values."""

    class Capped(LatencySeries):
        MAX_SAMPLES = max_samples

    return Capped()


class TestLatencySeriesBounded:
    def test_memory_is_bounded_under_sustained_traffic(self):
        s = _capped(128)
        for i in range(100_000):
            s.add(float(i % 1000))
        assert len(s.values) == 128  # reservoir, not an unbounded list
        assert len(s) == 100_000  # observation count stays exact

    def test_exact_below_capacity(self):
        s = _capped(64)
        data = np.random.default_rng(3).uniform(0, 10, size=50)
        for v in data:
            s.add(float(v))
        assert s.percentile(50) == pytest.approx(np.percentile(data, 50))
        assert s.mean == pytest.approx(data.mean())
        assert s.max == pytest.approx(data.max())

    def test_mean_and_max_stay_exact_beyond_capacity(self):
        s = _capped(32)
        data = np.random.default_rng(4).uniform(0, 100, size=5000)
        for v in data:
            s.add(float(v))
        assert s.mean == pytest.approx(data.mean())
        assert s.max == pytest.approx(data.max())

    def test_reservoir_percentiles_track_distribution(self):
        s = _capped(512)
        data = np.random.default_rng(5).exponential(10.0, size=20_000)
        for v in data:
            s.add(float(v))
        assert s.percentile(50) == pytest.approx(np.percentile(data, 50), rel=0.25)
        assert s.percentile(95) == pytest.approx(np.percentile(data, 95), rel=0.25)

    def test_deterministic_given_seed(self):
        a, b = _capped(16), _capped(16)
        for i in range(1000):
            a.add(float(i))
            b.add(float(i))
        np.testing.assert_array_equal(a.values, b.values)

    def test_summary_contract(self):
        s = LatencySeries()
        assert set(s.summary()) == {"p50", "p95", "p99", "mean", "max"}
        assert s.summary()["p50"] == 0.0  # empty series
        s.add(2.0)
        assert s.summary()["max"] == 2.0

    def test_default_capacity_and_validation(self):
        s = LatencySeries()
        for i in range(LatencySeries.MAX_SAMPLES + 10):
            s.add(float(i))
        assert LatencySeries.MAX_SAMPLES == 4096
        assert len(s.values) == LatencySeries.MAX_SAMPLES


class TestServerMetricsRegistry:
    def test_counters_published_as_callbacks(self):
        m = ServerMetrics()
        m.requests += 3
        m.cache_hits += 2
        m.cache_misses += 1
        r = m.registry
        assert r.get("serve_requests_total").value == 3
        assert r.get("serve_cache_hits_total").value == 2
        assert r.get("serve_cache_hit_rate").value == pytest.approx(2 / 3)

    def test_latency_histograms_follow_observations(self):
        m = ServerMetrics()
        m.observe_latency(exec_ms=1.0, total_ms=4.0)
        m.observe_latency(exec_ms=2.0, total_ms=8.0)
        assert len(m.exec_ms) == 2 and len(m.total_ms) == 2
        assert m.registry.get("serve_exec_latency_ms").count == 2
        assert m.registry.get("serve_request_latency_ms").mean == pytest.approx(6.0)

    def test_explicit_registry_is_used(self):
        r = MetricsRegistry()
        m = ServerMetrics(registry=r)
        m.requests += 1
        assert r.get("serve_requests_total").value == 1
        assert "serve_requests_total" in r.render_prometheus()

    def test_snapshot_contract_unchanged(self):
        m = ServerMetrics()
        m.requests += 1
        m.observe_latency(1.0, 2.0)
        snap = m.snapshot()
        for key in ("requests", "cache_hits", "cache_misses", "hit_rate",
                    "degraded", "deadline_misses", "failed",
                    "compose_spent_s", "compose_saved_s", "exec_ms", "total_ms"):
            assert key in snap, key
        assert set(snap["exec_ms"]) == {"p50", "p95", "p99", "mean", "max"}
