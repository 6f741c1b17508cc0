"""Tail-latency attribution: joint stage records, reservoir, exemplars."""

from __future__ import annotations

import pytest

from repro.obs import AttributionCollector, MetricsRegistry, STAGES


def _fill(collector, n=20, slow_every=10):
    """n requests: mostly fast compose-dominated, every ``slow_every``-th
    one slow and queue-dominated."""
    for i in range(n):
        if i % slow_every == slow_every - 1:
            stages = {"queue_wait": 80.0, "compose": 15.0, "launch": 5.0}
        else:
            stages = {"queue_wait": 0.5, "compose": 2.0, "launch": 0.5}
        collector.record(f"req-{i:06d}", stages, shard=f"shard-{i % 2}")


class TestRecording:
    def test_zero_stages_dropped(self):
        c = AttributionCollector()
        c.record("t1", {"compose": 2.0, "retry_backoff": 0.0, "migration": 0})
        (rec,) = c.records()
        assert rec["stages"] == {"compose": 2.0}

    def test_total_defaults_to_stage_sum(self):
        c = AttributionCollector()
        c.record("t1", {"compose": 2.0, "launch": 1.0})
        assert c.records()[0]["total_ms"] == pytest.approx(3.0)

    def test_explicit_total_kept(self):
        c = AttributionCollector()
        c.record("t1", {"compose": 2.0}, total_ms=10.0)
        assert c.records()[0]["total_ms"] == 10.0

    def test_canonical_stages_constant(self):
        assert STAGES == (
            "queue_wait", "compose", "launch", "retry_backoff", "migration"
        )


class _EightRecords(AttributionCollector):
    CAPACITY = 8


class TestReservoir:
    def test_bounded_and_deterministic(self):
        a, b = _EightRecords(), _EightRecords()
        for c in (a, b):
            for i in range(200):
                c.record(f"t{i}", {"compose": float(i)})
        assert a.count == b.count == 200
        assert len(a.records()) == 8
        assert a.records() == b.records()


class TestPercentileAttribution:
    def test_shares_sum_to_one(self):
        c = AttributionCollector()
        _fill(c)
        for p in (50, 95, 99):
            att = c.percentile_attribution(p)
            assert sum(att["shares"].values()) == pytest.approx(1.0)

    def test_tail_dominated_by_queue_wait(self):
        c = AttributionCollector()
        _fill(c, n=50, slow_every=10)
        att = c.percentile_attribution(95)
        stage, share = att["dominant"]
        assert stage == "queue_wait"
        assert share > 0.5
        assert att["cut_ms"] == pytest.approx(100.0)
        assert att["requests"] == 5

    def test_exemplar_is_slowest_tail_request(self):
        c = AttributionCollector()
        c.record("fast", {"compose": 1.0})
        c.record("slow", {"queue_wait": 50.0})
        c.record("slowest", {"queue_wait": 90.0})
        assert c.percentile_attribution(95)["exemplar"] == "slowest"

    def test_empty_collector(self):
        att = AttributionCollector().percentile_attribution(99)
        assert att["requests"] == 0
        assert att["shares"] == {}
        assert att["dominant"] is None and att["exemplar"] is None

    def test_by_shard_counts_tail_owners(self):
        c = AttributionCollector()
        _fill(c, n=40, slow_every=4)  # slow requests are i % 4 == 3 -> shard-1
        owners = c.by_shard(80)
        assert owners.get("shard-1", 0) > owners.get("shard-0", 0)


class TestRegistryIntegration:
    def test_labeled_histograms_with_exemplars(self):
        registry = MetricsRegistry()
        c = AttributionCollector(registry, prefix="stage")
        c.record("req-000001", {"compose": 2.0, "queue_wait": 0.5})
        h = registry.get('stage_ms{stage="compose"}')
        assert h is not None and h.count == 1
        assert any(
            ex["trace_id"] == "req-000001" for ex in h.exemplars().values()
        )
        total = registry.get("stage_total_ms")
        assert total is not None and total.count == 1

    def test_no_registry_is_fine(self):
        c = AttributionCollector(registry=None)
        c.record(None, {"compose": 1.0})  # untraced request: no exemplar
        assert c.count == 1


class TestSnapshotAndReport:
    def test_snapshot_shape(self):
        c = AttributionCollector()
        _fill(c)
        snap = c.snapshot()
        assert snap["requests"] == 20
        assert snap["retained"] == 20
        assert set(snap["percentiles"]) == {"p50", "p95", "p99"}
        assert "tail_by_shard" in snap

    def test_report_lists_percentiles_and_exemplar(self):
        c = AttributionCollector()
        _fill(c)
        text = c.report()
        assert "p50" in text and "p95" in text and "p99" in text
        assert "dominant:" in text and "exemplar=" in text
        assert "tail by shard" in text

    def test_empty_report(self):
        assert "no attribution records" in AttributionCollector().report()
