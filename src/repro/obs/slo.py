"""Declarative SLOs with multi-window burn-rate alerting.

An :class:`SLOSpec` states an objective over a request-level **signal**
(``availability``, ``latency`` with a threshold, or ``deadline`` hit
rate): "99% of attempts succeed", "95% of requests finish within 50 ms".
The :class:`SLOEngine` classifies every recorded request outcome into
good/bad events per SLO and evaluates **burn rate** — the rate at which
the error budget (``1 - target``) is being consumed, where burn rate 1
means the budget lasts exactly the evaluation horizon.

Alerting follows the Google SRE multi-window multi-burn-rate recipe: a
:class:`BurnRatePolicy` fires only when *both* a long and a short window
exceed the policy's burn-rate factor.  The long window provides evidence
that real budget was spent; the short window guarantees the condition is
*still* happening (fast reset, no alerting on stale history).  The
default pair mirrors the SRE workbook ratios — a fast-burn ``page``
(factor 14.4, short window 1/12 of the long) and a slow-burn ``ticket``
(factor 6, longer windows) — scaled down from hours to the virtual-time
milliseconds of a replay via :func:`default_policies`.

The point of burn-rate alerting over a plain threshold: a fault storm
(e.g. a shard death failing a burst of attempts) trips the fast-burn
page while the *cumulative* SLI is still above target — the alert leads
the breach instead of reporting it.  Fired alerts are recorded as
:class:`Alert` objects, as ``slo_alerts_total`` counters (labeled by SLO
and severity) on an optional registry, and as zero-length spans on an
optional tracer lane so they land in the merged trace next to the
requests that caused them.

Timestamps are caller-supplied milliseconds (the serving stack's virtual
clock), so evaluation is deterministic and replayable.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.obs.registry import MetricsRegistry
from repro.obs.trace import NullTracer, Tracer

#: Signals an SLO can be declared over.
SIGNALS = ("availability", "latency", "deadline")


@dataclass(frozen=True)
class SLOSpec:
    """One service-level objective.

    ``signal`` selects what counts as *good*:

    * ``availability`` — the attempt succeeded;
    * ``latency`` — the attempt succeeded within ``threshold_ms``;
    * ``deadline`` — the request hit its scheduling deadline (outcomes
      with no deadline information are skipped for this SLO).
    """

    name: str
    signal: str
    target: float
    threshold_ms: float | None = None
    description: str = ""

    def __post_init__(self):
        if self.signal not in SIGNALS:
            raise ValueError(f"unknown SLO signal {self.signal!r} (want one of {SIGNALS})")
        if not 0.0 < self.target < 1.0:
            raise ValueError(f"SLO target must be in (0, 1), got {self.target}")
        if self.signal == "latency" and self.threshold_ms is None:
            raise ValueError("latency SLO needs threshold_ms")

    @property
    def error_budget(self) -> float:
        return 1.0 - self.target

    def classify(
        self, *, ok: bool, latency_ms: float | None, deadline_hit: bool | None
    ) -> bool | None:
        """Good (True), bad (False), or not-applicable (None)."""
        if self.signal == "availability":
            return ok
        if self.signal == "latency":
            if not ok:
                return False
            if latency_ms is None:
                return None
            return latency_ms <= self.threshold_ms
        if deadline_hit is None:  # deadline signal, no deadline set
            return None
        return bool(deadline_hit)


@dataclass(frozen=True)
class BurnRatePolicy:
    """Fire ``severity`` when both windows burn faster than ``factor``."""

    severity: str
    factor: float
    long_window_ms: float
    short_window_ms: float


def default_policies(scale_ms: float = 1000.0) -> tuple[BurnRatePolicy, ...]:
    """SRE-workbook pair scaled so the fast-burn long window is
    ``scale_ms`` (the workbook's 1h/5m and 6h/30m ratios preserved)."""
    return (
        BurnRatePolicy("page", 14.4, long_window_ms=scale_ms,
                       short_window_ms=scale_ms / 12.0),
        BurnRatePolicy("ticket", 6.0, long_window_ms=6.0 * scale_ms,
                       short_window_ms=scale_ms / 2.0),
    )


def default_slos(latency_threshold_ms: float = 50.0) -> tuple[SLOSpec, ...]:
    """The serving stack's stock objectives."""
    return (
        SLOSpec("availability", "availability", 0.99,
                description="99% of serve attempts succeed"),
        SLOSpec("latency_p99", "latency", 0.99, threshold_ms=latency_threshold_ms,
                description=f"99% of requests finish within {latency_threshold_ms:g} ms"),
        SLOSpec("deadline_hit", "deadline", 0.90,
                description="90% of deadline-bearing requests hit their deadline"),
    )


@dataclass(frozen=True)
class Alert:
    """One rising-edge burn-rate alert."""

    slo: str
    severity: str
    fired_at_ms: float
    burn_rate_long: float
    burn_rate_short: float
    factor: float
    #: SLI over *all* events so far at fire time — shows the alert led
    #: the cumulative breach rather than trailing it.
    cumulative_sli: float

    def as_dict(self) -> dict:
        return {
            "slo": self.slo,
            "severity": self.severity,
            "fired_at_ms": self.fired_at_ms,
            "burn_rate_long": self.burn_rate_long,
            "burn_rate_short": self.burn_rate_short,
            "factor": self.factor,
            "cumulative_sli": self.cumulative_sli,
        }


@dataclass
class _Tracker:
    """Windowed good/bad events plus alert state for one SLO."""

    spec: SLOSpec
    events: deque = field(default_factory=deque)  # (t_ms, good)
    good_total: int = 0
    bad_total: int = 0
    #: severities currently above threshold (for rising-edge detection).
    active: set = field(default_factory=set)

    def record(self, t_ms: float, good: bool) -> None:
        self.events.append((t_ms, good))
        if good:
            self.good_total += 1
        else:
            self.bad_total += 1

    def prune(self, t_ms: float, horizon_ms: float) -> None:
        while self.events and self.events[0][0] < t_ms - horizon_ms:
            self.events.popleft()

    def bad_fraction(self, t_ms: float, window_ms: float) -> float:
        good = bad = 0
        for ts, is_good in reversed(self.events):
            if ts < t_ms - window_ms:
                break
            if is_good:
                good += 1
            else:
                bad += 1
        total = good + bad
        return bad / total if total else 0.0

    def burn_rate(self, t_ms: float, window_ms: float) -> float:
        return self.bad_fraction(t_ms, window_ms) / self.spec.error_budget

    def cumulative_sli(self) -> float:
        total = self.good_total + self.bad_total
        return self.good_total / total if total else 1.0


class SLOEngine:
    """Evaluates a set of SLOs over a stream of request outcomes."""

    def __init__(
        self,
        specs: tuple[SLOSpec, ...] | list[SLOSpec] | None = None,
        policies: tuple[BurnRatePolicy, ...] | list[BurnRatePolicy] | None = None,
        registry: MetricsRegistry | None = None,
    ):
        self.specs = tuple(specs) if specs is not None else default_slos()
        self.policies = tuple(policies) if policies is not None else default_policies()
        self.registry = registry
        #: Tracer lane alerts are emitted on; the cluster frontend
        #: assigns it when a traced replay runs.
        self.tracer: Tracer | NullTracer | None = None
        self._trackers = {spec.name: _Tracker(spec) for spec in self.specs}
        self._alerts: list[Alert] = []
        self._horizon_ms = max(
            (p.long_window_ms for p in self.policies), default=0.0
        )

    # ------------------------------------------------------------------
    def record(
        self,
        t_ms: float,
        *,
        ok: bool,
        latency_ms: float | None = None,
        deadline_hit: bool | None = None,
    ) -> list[Alert]:
        """Classify one request outcome into every SLO and re-evaluate
        burn rates; returns alerts newly fired at this instant."""
        for tracker in self._trackers.values():
            good = tracker.spec.classify(
                ok=ok, latency_ms=latency_ms, deadline_hit=deadline_hit
            )
            if good is not None:
                tracker.record(t_ms, good)
        return self.evaluate(t_ms)

    def evaluate(self, t_ms: float) -> list[Alert]:
        """Rising-edge burn-rate check across every (SLO, policy) pair."""
        fired: list[Alert] = []
        for tracker in self._trackers.values():
            tracker.prune(t_ms, self._horizon_ms)
            for policy in self.policies:
                burn_long = tracker.burn_rate(t_ms, policy.long_window_ms)
                burn_short = tracker.burn_rate(t_ms, policy.short_window_ms)
                breaching = burn_long >= policy.factor and burn_short >= policy.factor
                if breaching and policy.severity not in tracker.active:
                    tracker.active.add(policy.severity)
                    alert = Alert(
                        slo=tracker.spec.name,
                        severity=policy.severity,
                        fired_at_ms=t_ms,
                        burn_rate_long=burn_long,
                        burn_rate_short=burn_short,
                        factor=policy.factor,
                        cumulative_sli=tracker.cumulative_sli(),
                    )
                    fired.append(alert)
                    self._alerts.append(alert)
                    self._emit(alert)
                elif not breaching:
                    tracker.active.discard(policy.severity)
        return fired

    def _emit(self, alert: Alert) -> None:
        if self.registry is not None:
            self.registry.counter(
                "slo_alerts_total",
                "Burn-rate alerts fired",
                labels={"slo": alert.slo, "severity": alert.severity},
            ).inc()
        if self.tracer is not None and self.tracer.enabled:
            with self.tracer.span(
                "slo_alert",
                slo=alert.slo,
                severity=alert.severity,
                burn_rate_long=round(alert.burn_rate_long, 3),
                burn_rate_short=round(alert.burn_rate_short, 3),
                cumulative_sli=round(alert.cumulative_sli, 6),
            ):
                pass

    # ------------------------------------------------------------------
    @property
    def alerts(self) -> tuple[Alert, ...]:
        return tuple(self._alerts)

    def cumulative_sli(self, slo: str) -> float:
        return self._trackers[slo].cumulative_sli()

    def snapshot(self) -> dict:
        """JSON-friendly state: per-SLO SLI/budget plus fired alerts."""
        slos = {}
        for name, tracker in self._trackers.items():
            sli = tracker.cumulative_sli()
            spec = tracker.spec
            slos[name] = {
                "signal": spec.signal,
                "target": spec.target,
                "threshold_ms": spec.threshold_ms,
                "sli": sli,
                "met": sli >= spec.target,
                "good": tracker.good_total,
                "bad": tracker.bad_total,
                "budget_consumed": (
                    (1.0 - sli) / spec.error_budget if spec.error_budget else 0.0
                ),
            }
        return {
            "slos": slos,
            "alerts": [a.as_dict() for a in self._alerts],
        }

    def report(self) -> str:
        """Human-readable SLO/alert table."""
        snap = self.snapshot()
        lines = [
            f"{'slo':16s} {'signal':14s} {'target':>8s} {'sli':>8s} "
            f"{'budget%':>8s} {'met':>5s}"
        ]
        for name, row in snap["slos"].items():
            lines.append(
                f"{name:16s} {row['signal']:14s} {row['target']:8.4f} "
                f"{row['sli']:8.4f} {row['budget_consumed'] * 100:7.1f}% "
                f"{'yes' if row['met'] else 'NO':>5s}"
            )
        if self._alerts:
            lines.append("alerts:")
            for a in self._alerts:
                lines.append(
                    f"  [{a.severity}] {a.slo} @ {a.fired_at_ms:.1f} ms "
                    f"(burn {a.burn_rate_long:.1f}x/{a.burn_rate_short:.1f}x "
                    f"over {a.factor:.1f}x, sli-at-fire {a.cumulative_sli:.4f})"
                )
        else:
            lines.append("alerts: none")
        return "\n".join(lines)
