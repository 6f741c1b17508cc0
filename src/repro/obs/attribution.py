"""Tail-latency attribution: where does a slow request's time go?

Percentile summaries say *how slow* the tail is; attribution says *why*.
Each completed request reports a stage breakdown — how many milliseconds
it spent in ``queue_wait``, ``compose``, ``launch``, ``retry_backoff``,
``migration`` — and the :class:`AttributionCollector` aggregates two
views of it:

* per-stage :class:`~repro.obs.registry.Histogram` series (labeled
  ``stage="..."``), each observation carrying the request's trace id as
  an **exemplar**, so a tail bucket links to a concrete trace in the
  merged Perfetto file;
* a bounded, seeded reservoir of whole-request records (trace id, total,
  stage breakdown, shard), kept *jointly* so tail attribution is honest:
  "the p99 is 71% queue_wait" requires knowing the stage mix of the
  actual tail requests, which marginal per-stage histograms cannot give.

:meth:`AttributionCollector.report` renders the p50/p95/p99 attribution
table with the dominant stage and an exemplar trace id per tail;
:meth:`AttributionCollector.snapshot` is the JSON twin consumed by
``cli stats --attribution`` / ``--json``.
"""

from __future__ import annotations

import random
import threading

from repro.obs.registry import DEFAULT_LATENCY_BUCKETS_MS, MetricsRegistry

#: Canonical request stages, in pipeline order.
STAGES = ("queue_wait", "compose", "launch", "retry_backoff", "migration")

#: Percentiles the attribution report covers.
ATTRIBUTION_PERCENTILES = (50, 95, 99)


class AttributionCollector:
    """Aggregates per-request stage breakdowns for tail attribution.

    ``registry``/``prefix`` direct the per-stage histogram series (e.g.
    ``cluster_stage_ms{stage="queue_wait"}``); the reservoir keeps at
    most :attr:`CAPACITY` whole-request records via seeded Algorithm R,
    so memory is bounded and replays are deterministic.
    """

    #: Whole-request records the reservoir retains.
    CAPACITY = 512

    def __init__(self, registry: MetricsRegistry | None = None, prefix: str = "stage"):
        self.registry = registry
        self.prefix = prefix
        self._rng = random.Random(0)
        self._records: list[dict] = []
        self._seen = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def record(
        self,
        trace_id: str | None,
        stages: dict[str, float],
        total_ms: float | None = None,
        shard: str | None = None,
    ) -> None:
        """Report one completed request's stage breakdown (milliseconds).

        Unknown stage keys are kept (the report shows whatever was
        measured); ``total_ms`` defaults to the sum of the stages.
        """
        clean = {k: float(v) for k, v in stages.items() if v}
        total = float(total_ms) if total_ms is not None else sum(clean.values())
        if self.registry is not None:
            for stage, ms in clean.items():
                self.registry.histogram(
                    f"{self.prefix}_ms",
                    "Per-stage request latency",
                    buckets=DEFAULT_LATENCY_BUCKETS_MS,
                    labels={"stage": stage},
                ).observe(ms, exemplar=trace_id)
            self.registry.histogram(
                f"{self.prefix}_total_ms",
                "End-to-end request latency",
                buckets=DEFAULT_LATENCY_BUCKETS_MS,
            ).observe(total, exemplar=trace_id)
        rec = {
            "trace_id": trace_id,
            "total_ms": total,
            "stages": clean,
            "shard": shard,
        }
        with self._lock:
            self._seen += 1
            if len(self._records) < self.CAPACITY:
                self._records.append(rec)
            else:  # Vitter's Algorithm R
                j = self._rng.randrange(self._seen)
                if j < self.CAPACITY:
                    self._records[j] = rec

    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """Requests seen (>= records retained)."""
        return self._seen

    def records(self) -> tuple[dict, ...]:
        with self._lock:
            return tuple(self._records)

    def _tail(self, p: float) -> list[dict]:
        """Records at or above the p-th percentile of total latency."""
        recs = self.records()
        if not recs:
            return []
        totals = sorted(r["total_ms"] for r in recs)
        rank = min(len(totals) - 1, max(0, int(round(p / 100.0 * len(totals))) - 1))
        cut = totals[rank]
        return [r for r in recs if r["total_ms"] >= cut]

    def percentile_attribution(self, p: float) -> dict:
        """Stage shares over the requests at/above the p-th percentile.

        Returns ``{"p": p, "cut_ms", "requests", "shares": {stage:
        fraction}, "dominant": (stage, share), "exemplar": trace_id}``
        where the exemplar is the slowest tail request's trace.
        """
        tail = self._tail(p)
        if not tail:
            return {"p": p, "cut_ms": 0.0, "requests": 0, "shares": {},
                    "dominant": None, "exemplar": None}
        stage_sums: dict[str, float] = {}
        for r in tail:
            for stage, ms in r["stages"].items():
                stage_sums[stage] = stage_sums.get(stage, 0.0) + ms
        denom = sum(stage_sums.values()) or 1.0
        shares = {s: ms / denom for s, ms in sorted(stage_sums.items())}
        dominant = max(shares.items(), key=lambda kv: kv[1]) if shares else None
        worst = max(tail, key=lambda r: r["total_ms"])
        return {
            "p": p,
            "cut_ms": min(r["total_ms"] for r in tail),
            "requests": len(tail),
            "shares": shares,
            "dominant": dominant,
            "exemplar": worst["trace_id"],
        }

    def by_shard(self, p: float = 95) -> dict[str, int]:
        """How many tail requests each shard served (who owns the tail)."""
        out: dict[str, int] = {}
        for r in self._tail(p):
            if r["shard"] is not None:
                out[r["shard"]] = out.get(r["shard"], 0) + 1
        return dict(sorted(out.items(), key=lambda kv: -kv[1]))

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-friendly attribution state for ``cli stats --json``."""
        return {
            "requests": self._seen,
            "retained": len(self.records()),
            "percentiles": {
                f"p{p}": self.percentile_attribution(p)
                for p in ATTRIBUTION_PERCENTILES
            },
            "tail_by_shard": self.by_shard(95),
        }

    def report(self) -> str:
        """Human-readable p50/p95/p99 attribution table."""
        if not self._seen:
            return "(no attribution records)"
        lines = [f"attribution over {self._seen} requests "
                 f"({len(self.records())} sampled):"]
        for p in ATTRIBUTION_PERCENTILES:
            att = self.percentile_attribution(p)
            if not att["requests"]:
                continue
            shares = ", ".join(
                f"{stage} {share * 100.0:.0f}%"
                for stage, share in sorted(
                    att["shares"].items(), key=lambda kv: -kv[1]
                )
            )
            dom = att["dominant"]
            lines.append(
                f"  p{p:<3d} >= {att['cut_ms']:8.3f} ms "
                f"({att['requests']:4d} reqs): {shares}"
                + (f"  [dominant: {dom[0]}]" if dom else "")
                + (f"  exemplar={att['exemplar']}" if att["exemplar"] else "")
            )
        shard_tail = self.by_shard(95)
        if shard_tail:
            owners = ", ".join(f"{s}: {n}" for s, n in shard_tail.items())
            lines.append(f"  p95 tail by shard: {owners}")
        return "\n".join(lines)
