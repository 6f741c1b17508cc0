"""Serving counters and latency aggregates.

:class:`ServerMetrics` is the server-side scoreboard: request and
degradation counters, composition time spent vs. saved (the quantity the
plan cache exists to recover — Figures 8-9 measure exactly this overhead
per compose), and latency percentiles over the simulated execution times.
``snapshot()`` returns a flat JSON-friendly dict; ``report()`` renders a
plain-text summary for the CLI.

Memory is bounded under sustained traffic: :class:`LatencySeries` keeps a
fixed-size reservoir sample (Vitter's Algorithm R) instead of an
append-only list, with exact running count/mean/max, and every scoreboard
field is published onto a :class:`repro.obs.MetricsRegistry` (callback
instruments for the counters, fixed-bucket streaming histograms for the
latencies) so ``cli stats`` can render a Prometheus-style exposition.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, fields
from functools import cache

import numpy as np

from repro.obs import AttributionCollector, MetricsRegistry

#: Percentiles reported by every latency summary.
PERCENTILES = (50, 95, 99)


class LatencySeries:
    """Latency aggregate with bounded memory and percentile summaries.

    Up to :attr:`MAX_SAMPLES` observations are stored verbatim
    (percentiles are exact); past that, reservoir sampling keeps a uniform
    sample of everything seen, so memory stays O(:attr:`MAX_SAMPLES`)
    under sustained traffic while ``count``, ``mean``, and ``max`` remain
    exact.  The reservoir's RNG is seeded, keeping replays deterministic.
    """

    #: Reservoir capacity: exact percentiles up to this many
    #: observations, a uniform sample beyond.
    MAX_SAMPLES = 4096

    def __init__(self, unit: str = "ms"):
        self.unit = unit
        self._rng = random.Random(0)
        self._values: list[float] = []
        self._count = 0
        self._sum = 0.0
        self._max = 0.0

    def add(self, value: float) -> None:
        value = float(value)
        self._count += 1
        self._sum += value
        if value > self._max:
            self._max = value
        if len(self._values) < self.MAX_SAMPLES:
            self._values.append(value)
        else:
            # Algorithm R: keep each of the _count observations with
            # probability MAX_SAMPLES / _count.
            j = self._rng.randrange(self._count)
            if j < self.MAX_SAMPLES:
                self._values[j] = value

    def __len__(self) -> int:
        """Total observations seen (not the retained sample size)."""
        return self._count

    @property
    def values(self) -> np.ndarray:
        """The retained sample (all values while under :attr:`MAX_SAMPLES`)."""
        return np.asarray(self._values, dtype=np.float64)

    def percentile(self, p: float) -> float:
        if not self._values:
            return 0.0
        return float(np.percentile(self.values, p))

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    @property
    def max(self) -> float:
        return self._max if self._count else 0.0

    def summary(self) -> dict:
        """``{"p50": ..., "p95": ..., "p99": ..., "mean": ..., "max": ...}``."""
        out = {f"p{p}": self.percentile(p) for p in PERCENTILES}
        out["mean"] = self.mean
        out["max"] = self.max
        return out


def _counter(name: str, help_text: str, default: float = 0, fleet: bool = False):
    """Declare a :class:`Scoreboard` counter published on the registry as
    ``name``.

    ``fleet`` marks the counters :meth:`ClusterFrontend.snapshot
    <repro.serve.cluster.ClusterFrontend.snapshot>` sums across shards.
    """
    return field(default=default, metadata={"prometheus": (name, help_text), "fleet": fleet})


@cache
def counter_fields(cls: type) -> tuple:
    """The :func:`_counter` fields of a scoreboard class, in declaration
    order."""
    return tuple(f for f in fields(cls) if "prometheus" in f.metadata)


class Scoreboard:
    """Base of the dataclass scoreboards whose counters are declared with
    :func:`_counter`: the registry mirror and the counter part of
    ``snapshot()`` derive from the declarations."""

    def _publish_counters(self) -> None:
        """Mirror every declared counter onto ``self.registry``."""
        for f in counter_fields(type(self)):
            name, help_text = f.metadata["prometheus"]
            self.registry.counter(
                name, help_text, callback=lambda self=self, a=f.name: getattr(self, a)
            )

    def _counter_snapshot(self) -> dict:
        """``{field name: value}`` of every declared counter."""
        return {f.name: getattr(self, f.name) for f in counter_fields(type(self))}


@dataclass
class ServerMetrics(Scoreboard):
    """Scoreboard updated by :class:`repro.serve.server.SpMMServer`.

    Every counter is declared once, with its Prometheus name and help
    text, and mirrored onto :attr:`registry` (a per-instance
    :class:`~repro.obs.MetricsRegistry` by default; pass
    ``repro.obs.get_registry()`` to publish onto the process-wide one).
    """

    requests: int = _counter("serve_requests_total", "Requests served")
    cache_hits: int = _counter("serve_cache_hits_total", "Plan-cache hits")
    cache_misses: int = _counter("serve_cache_misses_total", "Plan-cache misses")
    #: Requests served the CSR fallback plan by admission control.
    degraded: int = _counter("serve_degraded_total", "Requests degraded to the CSR fallback")
    deadline_misses: int = _counter(
        "serve_deadline_misses_total", "Requests missing their deadline")
    failed: int = _counter(
        "serve_failed_total", "Requests failing after exhausting retries and degradation")
    retries: int = _counter(
        "serve_retries_total", "Execution attempts beyond each request's first")
    recovered: int = _counter(
        "serve_recovered_total", "Requests served despite at least one failed attempt")
    oom_degraded: int = _counter(
        "serve_oom_degraded_total", "Plans rebuilt as CSR after a structural OOM")
    device_lost: int = _counter(
        "serve_device_lost_total", "Device-lost errors observed across the pool")
    #: Circuit-breaker trips (closed/half-open -> open) across the pool.
    breaker_open: int = _counter(
        "serve_breaker_open_total", "Circuit-breaker trips across the device pool")
    speculative_misses: int = _counter(
        "serve_speculative_misses_total",
        "Misses served the immediate CSR plan during a speculative recompose window",
        fleet=True)
    speculative_swaps: int = _counter(
        "serve_speculative_swaps_total", "Background composes swapped into the plan cache",
        fleet=True)
    speculative_skipped: int = _counter(
        "serve_speculative_skipped_total",
        "Background composes discarded (OOM-pinned key or compose error)", fleet=True)
    #: Adaptive serving (docs/ADAPTIVE.md); overrides are post-handoff
    #: Thompson decisions.
    bandit_observations: int = _counter(
        "serve_bandit_observations_total",
        "Successful requests fed to the format bandit as reward", fleet=True)
    bandit_overrides: int = _counter(
        "serve_bandit_overrides_total",
        "Requests whose format the bandit chose over the static selector", fleet=True)
    bandit_explorations: int = _counter(
        "serve_bandit_explorations_total",
        "Pre-handoff random-arm explorations by the format bandit", fleet=True)
    bandit_flips: int = _counter(
        "serve_bandit_flips_total",
        "Plan-cache entries re-pinned on a bandit format flip", fleet=True)
    bandit_retrains: int = _counter(
        "serve_bandit_retrains_total",
        "Static-selector refits on serving-derived samples", fleet=True)
    graphs: int = _counter("serve_graph_requests_total", "Graph (DAG) requests served")
    graph_stages: int = _counter(
        "serve_graph_stages_total", "Device op stages executed inside graph requests")
    #: The structural-reuse ("re-value") path; compare :attr:`revalue_s`
    #: against :attr:`compose_spent_s`.
    plan_reuses: int = _counter(
        "serve_graph_plan_reuses_total",
        "Misses served by re-valuing a resident same-pattern plan", fleet=True)
    revalue_s: float = _counter(
        "serve_graph_revalue_seconds",
        "Wall-clock seconds spent re-valuing same-pattern plans", default=0.0)
    compose_spent_s: float = _counter(
        "serve_compose_spent_seconds", "Wall-clock seconds spent composing", default=0.0)
    #: Credited from each hit entry's recorded compose overhead.
    compose_saved_s: float = _counter(
        "serve_compose_saved_seconds", "Composition seconds saved by cache hits", default=0.0)
    #: Simulated kernel execution time per request.
    exec_ms: LatencySeries = field(default_factory=LatencySeries)
    #: End-to-end request latency: composition overhead + simulated execution.
    total_ms: LatencySeries = field(default_factory=LatencySeries)
    #: End-to-end latency of *failed* requests (overhead + retry backoff),
    #: kept out of the success series so they cannot skew p50/p95.
    failed_ms: LatencySeries = field(default_factory=LatencySeries)
    #: Registry this scoreboard publishes onto.
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)
    #: Per-request stage breakdown (queue_wait / compose / launch /
    #: retry_backoff) for tail-latency attribution; publishes
    #: ``serve_stage_ms{stage="..."}`` histograms onto :attr:`registry`.
    attribution: AttributionCollector | None = None

    def __post_init__(self) -> None:
        if self.attribution is None:
            self.attribution = AttributionCollector(
                self.registry, prefix="serve_stage"
            )
        self._publish_counters()
        r = self.registry
        r.gauge("serve_cache_hit_rate", "Plan-cache hit rate",
                callback=lambda self=self: self.hit_rate)
        self._exec_hist = r.histogram(
            "serve_exec_latency_ms", "Simulated kernel time per request (ms)"
        )
        self._total_hist = r.histogram(
            "serve_request_latency_ms",
            "End-to-end latency per request: compose overhead + execution (ms)",
        )
        self._failed_hist = r.histogram(
            "serve_failed_latency_ms",
            "End-to-end latency of failed requests: overhead + retry backoff (ms)",
        )

    def observe_latency(self, exec_ms: float, total_ms: float) -> None:
        """Record one *served* request's latencies (series + histograms).

        Failed requests must go through :meth:`observe_failed_latency`
        instead; mixing them in here would skew the success percentiles.
        """
        self.exec_ms.add(exec_ms)
        self.total_ms.add(total_ms)
        self._exec_hist.observe(exec_ms)
        self._total_hist.observe(total_ms)

    def observe_failed_latency(self, total_ms: float) -> None:
        """Record the latency a failed request paid before giving up."""
        self.failed_ms.add(total_ms)
        self._failed_hist.observe(total_ms)

    @property
    def hit_rate(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    @property
    def availability(self) -> float:
        """Fraction of requests served (1.0 with no traffic yet)."""
        if not self.requests:
            return 1.0
        return 1.0 - self.failed / self.requests

    def snapshot(self) -> dict:
        """Flat, JSON-friendly view of the scoreboard."""
        out = self._counter_snapshot()
        out.update(
            hit_rate=self.hit_rate,
            availability=self.availability,
            exec_ms=self.exec_ms.summary(),
            total_ms=self.total_ms.summary(),
            failed_ms=self.failed_ms.summary(),
            attribution=self.attribution.snapshot(),
        )
        return out

    def report(self) -> str:
        """Plain-text summary for terminal output."""
        e, t = self.exec_ms.summary(), self.total_ms.summary()
        lines = [
            f"requests            {self.requests}",
            f"cache hits/misses   {self.cache_hits}/{self.cache_misses} "
            f"(hit rate {self.hit_rate:.1%})",
            f"degraded requests   {self.degraded}",
            f"deadline misses     {self.deadline_misses}",
            f"failed requests     {self.failed} "
            f"(availability {self.availability:.2%})",
            f"retries/recovered   {self.retries}/{self.recovered}",
            f"oom degraded        {self.oom_degraded}",
            f"device lost/trips   {self.device_lost}/{self.breaker_open}",
            f"compose spent       {self.compose_spent_s * 1e3:.1f} ms",
            f"compose saved       {self.compose_saved_s * 1e3:.1f} ms",
            "simulated exec ms   "
            f"p50={e['p50']:.3f} p95={e['p95']:.3f} p99={e['p99']:.3f} max={e['max']:.3f}",
            "request latency ms  "
            f"p50={t['p50']:.3f} p95={t['p95']:.3f} p99={t['p99']:.3f} max={t['max']:.3f}",
        ]
        if self.graphs:
            lines.append(
                f"graphs              {self.graphs} "
                f"({self.graph_stages} device stages, "
                f"{self.plan_reuses} plan reuses, "
                f"revalue {self.revalue_s * 1e3:.1f} ms)"
            )
        if self.speculative_misses or self.speculative_swaps or self.speculative_skipped:
            lines.append(
                f"speculative         {self.speculative_misses} misses, "
                f"{self.speculative_swaps} swaps, "
                f"{self.speculative_skipped} skipped"
            )
        if self.bandit_observations:
            lines.append(
                f"bandit              {self.bandit_observations} observations, "
                f"{self.bandit_overrides} overrides, "
                f"{self.bandit_explorations} explorations, "
                f"{self.bandit_flips} flips, "
                f"{self.bandit_retrains} retrains"
            )
        if self.failed:
            f = self.failed_ms.summary()
            lines.append(
                "failed latency ms   "
                f"p50={f['p50']:.3f} p95={f['p95']:.3f} p99={f['p99']:.3f} "
                f"max={f['max']:.3f}"
            )
        return "\n".join(lines)


#: Counters the cluster snapshot sums across its shards' servers.
FLEET_COUNTERS = tuple(f.name for f in counter_fields(ServerMetrics) if f.metadata["fleet"])
