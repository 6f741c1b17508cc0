"""Metrics registry: instruments, percentiles, and expositions."""

import numpy as np
import pytest

from repro.obs import Counter, Gauge, Histogram, MetricsRegistry, get_registry


class TestCounter:
    def test_inc_accumulates(self):
        c = Counter("c_total")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_rejects_decrease(self):
        with pytest.raises(ValueError):
            Counter("c_total").inc(-1)

    def test_callback_backed(self):
        state = {"n": 7}
        c = Counter("c_total", callback=lambda: state["n"])
        assert c.value == 7
        state["n"] = 9
        assert c.value == 9
        with pytest.raises(RuntimeError):
            c.inc()

    def test_invalid_name(self):
        with pytest.raises(ValueError):
            Counter("bad name!")


class TestGauge:
    def test_set_and_inc(self):
        g = Gauge("g")
        g.set(4.0)
        g.inc(-1.5)
        assert g.value == 2.5

    def test_callback_backed(self):
        g = Gauge("g", callback=lambda: 0.25)
        assert g.value == 0.25
        with pytest.raises(RuntimeError):
            g.set(1)


class TestHistogram:
    def test_streaming_stats_are_exact(self):
        h = Histogram("h_ms")
        values = [0.2, 1.5, 3.0, 40.0, 700.0]
        for v in values:
            h.observe(v)
        assert h.count == len(values)
        assert h.sum == pytest.approx(sum(values))
        assert h.mean == pytest.approx(np.mean(values))
        assert h.max == 700.0
        assert h.min == 0.2

    def test_percentiles_interpolate_within_buckets(self):
        h = Histogram("h_ms", buckets=(1, 2, 4, 8, 16, 32, 64, 128))
        rng = np.random.default_rng(0)
        data = rng.uniform(0.0, 100.0, size=5000)
        for v in data:
            h.observe(v)
        for p in (50, 95, 99):
            exact = np.percentile(data, p)
            est = h.percentile(p)
            # the estimate must land in the right bucket neighborhood
            assert est == pytest.approx(exact, rel=0.5), p
        assert h.percentile(100) == pytest.approx(h.max)
        assert h.percentile(0) >= h.min - 1e-12

    def test_memory_is_constant_in_observations(self):
        h = Histogram("h_ms")
        for i in range(50_000):
            h.observe(float(i % 997))
        assert len(h._counts) == len(h.bounds) + 1
        assert h.count == 50_000

    def test_summary_contract(self):
        h = Histogram("h_ms")
        h.observe(1.0)
        s = h.summary()
        assert set(s) == {"p50", "p95", "p99", "mean", "max"}

    def test_empty_histogram(self):
        h = Histogram("h_ms")
        assert h.percentile(50) == 0.0
        assert h.mean == 0.0 and h.max == 0.0

    def test_bucket_counts_are_cumulative(self):
        h = Histogram("h_ms", buckets=(1, 10, 100))
        for v in (0.5, 5, 50, 500):
            h.observe(v)
        assert h.bucket_counts() == {"1": 1, "10": 2, "100": 3, "+Inf": 4}

    def test_rejects_bad_percentile_and_buckets(self):
        h = Histogram("h_ms")
        h.observe(1.0)
        with pytest.raises(ValueError):
            h.percentile(101)
        with pytest.raises(ValueError):
            Histogram("h2_ms", buckets=())
        with pytest.raises(ValueError):
            Histogram("h3_ms", buckets=(1.0, float("inf")))


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        r = MetricsRegistry()
        assert r.counter("a_total") is r.counter("a_total")
        assert r.histogram("h_ms") is r.histogram("h_ms")

    def test_kind_conflict_raises(self):
        r = MetricsRegistry()
        r.counter("x")
        with pytest.raises(ValueError):
            r.gauge("x")

    def test_callback_rebinds_on_reregistration(self):
        r = MetricsRegistry()
        r.counter("x", callback=lambda: 1)
        r.counter("x", callback=lambda: 2)
        assert r.get("x").value == 2

    def test_snapshot_shapes(self):
        r = MetricsRegistry()
        r.counter("c_total").inc(3)
        r.gauge("g").set(0.5)
        h = r.histogram("h_ms")
        h.observe(2.0)
        snap = r.snapshot()
        assert snap["c_total"] == 3
        assert snap["g"] == 0.5
        assert snap["h_ms"]["count"] == 1
        assert set(snap["h_ms"]) >= {"count", "sum", "p50", "p95", "p99",
                                     "mean", "max", "buckets"}

    def test_prometheus_exposition(self):
        r = MetricsRegistry()
        r.counter("req_total", "Requests").inc(2)
        h = r.histogram("lat_ms", buckets=(1, 10))
        h.observe(0.5)
        h.observe(5.0)
        text = r.render_prometheus()
        assert "# TYPE req_total counter" in text
        assert "req_total 2" in text
        assert '# HELP req_total Requests' in text
        assert 'lat_ms_bucket{le="1"} 1' in text
        assert 'lat_ms_bucket{le="+Inf"} 2' in text
        assert "lat_ms_count 2" in text
        assert text.endswith("\n")

    def test_reset_forgets_instruments(self):
        r = MetricsRegistry()
        r.counter("x").inc()
        r.reset()
        assert r.names() == ()

    def test_global_registry_is_shared_and_has_pipeline_metrics(self):
        import repro.core.pipeline  # noqa: F401 - registers compose metrics

        r = get_registry()
        assert r is get_registry()
        assert r.get("compose_total") is not None
        assert r.get("compose_overhead_ms") is not None


class TestHistogramPercentileBoundaries:
    def _hist(self, *values, buckets=(1.0, 10.0, 100.0)):
        h = Histogram("b_ms", buckets=buckets)
        for v in values:
            h.observe(v)
        return h

    def test_empty_histogram_is_zero(self):
        h = self._hist()
        assert h.percentile(0) == 0.0
        assert h.percentile(50) == 0.0
        assert h.percentile(100) == 0.0

    def test_out_of_range_raises(self):
        h = self._hist(1.0)
        with pytest.raises(ValueError):
            h.percentile(-0.1)
        with pytest.raises(ValueError):
            h.percentile(100.1)

    def test_single_observation_all_percentiles(self):
        h = self._hist(7.0)
        for p in (0, 1, 50, 99, 100):
            assert h.percentile(p) == pytest.approx(7.0)

    def test_p0_and_p100_clamp_to_observed_extremes(self):
        h = self._hist(0.5, 5.0, 50.0)
        assert h.percentile(0) == pytest.approx(0.5)
        assert h.percentile(100) == pytest.approx(50.0)

    def test_value_beyond_last_finite_bucket(self):
        h = self._hist(0.5, 99_999.0)
        # The overflow lands in the implicit +Inf bucket; the estimate
        # must clamp to the observed max, never report a bucket edge.
        assert h.percentile(100) == pytest.approx(99_999.0)
        assert h.bucket_counts()["+Inf"] == 2
        assert h.bucket_counts()["100"] == 1

    def test_estimates_bounded_by_min_max(self):
        h = self._hist(2.0, 3.0, 4.0, 60.0)
        for p in (0, 25, 50, 75, 100):
            assert h.min <= h.percentile(p) <= h.max


class TestLatencySeriesReservoir:
    def _series(self, n):
        from repro.serve.metrics import LatencySeries

        class Capped(LatencySeries):
            MAX_SAMPLES = 64

        s = Capped()
        rng = np.random.default_rng(99)
        for v in rng.exponential(5.0, size=n):
            s.add(float(v))
        return s

    def test_deterministic_under_fixed_seed(self):
        a = self._series(5000)
        b = self._series(5000)
        assert np.array_equal(a.values, b.values)
        assert a.summary() == b.summary()

    def test_exact_scalars_survive_sampling(self):
        s = self._series(5000)
        assert len(s) == 5000
        assert len(s.values) == 64
        # count/mean/max are streamed exactly, not sampled.
        rng = np.random.default_rng(99)
        values = rng.exponential(5.0, size=5000)
        assert s.mean == pytest.approx(values.mean())
        assert s.max == pytest.approx(values.max())

    def test_no_sampling_below_capacity(self):
        s = self._series(50)
        assert len(s.values) == 50
        assert s.percentile(100) == pytest.approx(s.max)
