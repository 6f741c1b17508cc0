"""SLO specs and multi-window burn-rate alerting.

The burn-rate numbers are hand-computable: with an availability target
of 0.9 the error budget is 0.1, so a window whose bad fraction is 0.3
burns at 3x.  Policies fire only when *both* the long and the short
window exceed the factor, on a rising edge.
"""

from __future__ import annotations

import pytest

from repro.obs import (
    Alert,
    BurnRatePolicy,
    MetricsRegistry,
    SLOEngine,
    SLOSpec,
    Tracer,
    default_policies,
    default_slos,
)


class TestSLOSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SLOSpec("x", "throughput", 0.9)
        with pytest.raises(ValueError):
            SLOSpec("x", "availability", 1.0)
        with pytest.raises(ValueError):
            SLOSpec("x", "availability", 0.0)
        with pytest.raises(ValueError):
            SLOSpec("x", "latency", 0.9)  # needs threshold_ms

    def test_error_budget(self):
        assert SLOSpec("x", "availability", 0.99).error_budget == pytest.approx(0.01)

    def test_classify_availability(self):
        spec = SLOSpec("x", "availability", 0.9)
        assert spec.classify(ok=True, latency_ms=None, deadline_hit=None) is True
        assert spec.classify(ok=False, latency_ms=None, deadline_hit=None) is False

    def test_classify_latency(self):
        spec = SLOSpec("x", "latency", 0.9, threshold_ms=10.0)
        assert spec.classify(ok=True, latency_ms=5.0, deadline_hit=None) is True
        assert spec.classify(ok=True, latency_ms=15.0, deadline_hit=None) is False
        # A failed attempt is bad regardless of how fast it failed.
        assert spec.classify(ok=False, latency_ms=1.0, deadline_hit=None) is False
        # No latency info on a success: not applicable.
        assert spec.classify(ok=True, latency_ms=None, deadline_hit=None) is None

    def test_classify_deadline(self):
        spec = SLOSpec("x", "deadline", 0.9)
        assert spec.classify(ok=True, latency_ms=None, deadline_hit=True) is True
        assert spec.classify(ok=True, latency_ms=None, deadline_hit=False) is False
        assert spec.classify(ok=True, latency_ms=None, deadline_hit=None) is None


class TestDefaults:
    def test_default_policies_preserve_sre_ratios(self):
        page, ticket = default_policies(1000.0)
        assert page.severity == "page" and page.factor == 14.4
        assert page.long_window_ms / page.short_window_ms == pytest.approx(12.0)
        assert ticket.severity == "ticket" and ticket.factor == 6.0
        assert ticket.long_window_ms == pytest.approx(6000.0)

    def test_default_slos_cover_all_signals(self):
        specs = default_slos(latency_threshold_ms=25.0)
        assert {s.signal for s in specs} == {"availability", "latency", "deadline"}
        latency = next(s for s in specs if s.signal == "latency")
        assert latency.threshold_ms == 25.0


def _engine(**kwargs):
    """One availability SLO (budget 0.1) and one 2x policy with a 100 ms
    long / 10 ms short window — small enough to reason about by hand."""
    return SLOEngine(
        specs=[SLOSpec("avail", "availability", 0.9)],
        policies=[BurnRatePolicy("page", 2.0, long_window_ms=100.0,
                                 short_window_ms=10.0)],
        **kwargs,
    )


class TestBurnRateAlerting:
    def test_steady_good_traffic_never_fires(self):
        engine = _engine()
        for t in range(0, 200, 5):
            assert engine.record(float(t), ok=True) == []
        assert engine.alerts == ()

    def test_fires_when_both_windows_breach(self):
        engine = _engine()
        for t in (0, 10, 20, 30, 40, 50):
            engine.record(float(t), ok=True)
        # Bad burst.  At t=60 the long window burns 1/7/0.1 = 1.43x (< 2);
        # at t=65 it burns 2/8/0.1 = 2.5x and the short window (>= 55 ms)
        # is all-bad at 10x, so the alert fires exactly there.
        assert engine.record(60.0, ok=False) == []
        fired = engine.record(65.0, ok=False)
        assert [a.severity for a in fired] == ["page"]
        alert = fired[0]
        assert alert.slo == "avail"
        assert alert.fired_at_ms == 65.0
        assert alert.burn_rate_long == pytest.approx(2.5)
        assert alert.burn_rate_short == pytest.approx(10.0)
        assert alert.cumulative_sli == pytest.approx(6 / 8)

    def test_alert_leads_cumulative_breach(self):
        """The point of burn-rate alerting: the page fires while the
        cumulative SLI is still above the 0.9 target."""
        engine = _engine()
        for t in (0, 10, 20, 30, 40, 50):
            engine.record(float(t), ok=True)
        engine.record(60.0, ok=False)
        engine.record(65.0, ok=False)
        (alert,) = engine.alerts
        assert alert.cumulative_sli == pytest.approx(0.75)
        assert alert.cumulative_sli < 0.9  # small sample: already dipped
        # With a larger good history the lead is strict:
        engine2 = _engine()
        for t in range(0, 600, 10):
            engine2.record(float(t), ok=True)
        engine2.record(605.0, ok=False)
        engine2.record(608.0, ok=False)
        engine2.record(609.0, ok=False)
        assert engine2.alerts
        assert engine2.alerts[0].cumulative_sli > 0.9
        assert engine2.cumulative_sli("avail") > 0.9  # never breached

    def test_rising_edge_no_refire_while_breaching(self):
        engine = _engine()
        for t in (0.0, 1.0, 2.0, 3.0):
            engine.record(t, ok=False)
        assert len(engine.alerts) == 1

    def test_refires_after_recovery(self):
        engine = _engine()
        for t in (0.0, 1.0, 2.0):
            engine.record(t, ok=False)
        assert len(engine.alerts) == 1
        # Recovery: enough good traffic that both windows drop below 2x
        # (the rising edge re-arms), then a second storm after the good
        # history has aged out of the long window.
        for t in range(10, 150, 2):
            engine.record(float(t), ok=True)
        for t in (300.0, 301.0, 302.0):
            engine.record(t, ok=False)
        assert len(engine.alerts) == 2

    def test_short_window_gates_stale_history(self):
        """Old badness alone (long window) must not page: the short
        window requires the condition to still be happening."""
        engine = _engine()
        engine.record(0.0, ok=False)
        engine.record(1.0, ok=False)
        assert len(engine.alerts) == 1  # the storm itself
        for t in range(20, 90, 2):  # bad events age past the short window
            engine.record(float(t), ok=True)
        assert len(engine.alerts) == 1


class TestEmission:
    def test_registry_counter_labeled_by_slo_and_severity(self):
        registry = MetricsRegistry()
        engine = _engine(registry=registry)
        for t in (0.0, 1.0, 2.0):
            engine.record(t, ok=False)
        counter = registry.get('slo_alerts_total{severity="page",slo="avail"}')
        assert counter is not None and counter.value == 1

    def test_tracer_span_emitted(self):
        tracer = Tracer()
        engine = _engine()
        engine.tracer = tracer
        for t in (0.0, 1.0, 2.0):
            engine.record(t, ok=False)
        spans = [s for s in tracer.spans if s.name == "slo_alert"]
        assert len(spans) == 1
        assert spans[0].attributes["slo"] == "avail"
        assert spans[0].attributes["severity"] == "page"


class TestSnapshotAndReport:
    def test_snapshot_shape(self):
        engine = _engine()
        engine.record(0.0, ok=True)
        engine.record(1.0, ok=False)
        snap = engine.snapshot()
        row = snap["slos"]["avail"]
        assert row["sli"] == pytest.approx(0.5)
        assert row["met"] is False
        assert row["good"] == 1 and row["bad"] == 1
        assert row["budget_consumed"] == pytest.approx(0.5 / 0.1)
        assert isinstance(snap["alerts"], list)
        assert all(isinstance(a, dict) for a in snap["alerts"])

    def test_alert_as_dict_round_trip(self):
        alert = Alert("a", "page", 1.0, 3.0, 4.0, 2.0, 0.95)
        assert Alert(**alert.as_dict()) == alert

    def test_report_mentions_alerts(self):
        engine = _engine()
        assert "alerts: none" in engine.report()
        for t in (0.0, 1.0, 2.0):
            engine.record(t, ok=False)
        text = engine.report()
        assert "[page] avail" in text
        assert "sli-at-fire" in text
