"""Cluster-level scoreboard: routing, replication, and membership.

Complements the per-shard :class:`~repro.serve.metrics.ServerMetrics`
(each shard's server keeps counting requests/hits/failures underneath):
this scoreboard tracks what the *fleet* layer did — where the router
sent traffic, how often hot-key replicas absorbed it, how many plans
crossed shards during membership changes, and whether any request was
lost at cluster level.  Every counter is published onto
:attr:`registry`; the frontend additionally binds live gauges (shard
count, routing skew, aggregate throughput) whose values depend on its
own state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs import AttributionCollector, MetricsRegistry
from repro.serve.metrics import Scoreboard, _counter


@dataclass
class ClusterMetrics(Scoreboard):
    """Scoreboard updated by :class:`repro.serve.cluster.ClusterFrontend`."""

    #: Routing decisions made (original submits + reroutes after failure).
    routed: int = _counter("cluster_routed_total", "Routing decisions made")
    #: Routes resolved by power-of-two-choices among a hot key's replicas.
    replica_routes: int = _counter(
        "cluster_replica_routes_total", "Routes resolved among hot-key replicas")
    #: Requests re-routed to another shard after their shard failed them.
    rerouted: int = _counter(
        "cluster_rerouted_total", "Requests re-routed after a shard-level failure")
    #: Requests with a final response (served or failed, after reroutes).
    completed: int = _counter(
        "cluster_completed_total", "Requests with a final cluster-level response")
    #: Requests that failed on every shard the router was willing to try.
    failed: int = _counter("cluster_failed_total", "Requests failed on every shard tried")
    #: Graph (DAG) requests routed and served end to end.
    graphs: int = _counter("cluster_graphs_total", "Graph (DAG) requests served end to end")
    #: Device op stages executed inside graph requests, fleet-wide.
    graph_stages: int = _counter(
        "cluster_graph_stages_total", "Device op stages executed inside graph requests")
    #: Distinct fingerprints that ever crossed the hot threshold.
    hot_keys: int = _counter(
        "cluster_hot_keys_total", "Distinct fingerprints that crossed the hot threshold")
    #: Cached plans copied to replica shards (hot-key replication).
    plans_replicated: int = _counter(
        "cluster_plans_replicated_total", "Cached plans copied to replica shards")
    #: Cached plans moved between shards by membership changes.
    plans_migrated: int = _counter(
        "cluster_plans_migrated_total", "Cached plans moved by membership changes")
    shards_added: int = _counter("cluster_shards_added_total", "Shards added")
    shards_removed: int = _counter("cluster_shards_removed_total", "Shards removed gracefully")
    shards_killed: int = _counter("cluster_shards_killed_total", "Shards killed by chaos")
    #: Cached-key remigration fraction of the latest membership change.
    last_remigration_fraction: float = 0.0
    #: Registry this scoreboard publishes onto.
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)
    #: Cluster-level per-request stage breakdown (queue_wait / compose /
    #: launch / retry_backoff / migration) for tail-latency attribution;
    #: publishes ``cluster_stage_ms{stage="..."}`` histograms (with trace
    #: exemplars) onto :attr:`registry`.
    attribution: AttributionCollector | None = None

    def __post_init__(self) -> None:
        if self.attribution is None:
            self.attribution = AttributionCollector(
                self.registry, prefix="cluster_stage"
            )
        self._publish_counters()
        r = self.registry
        r.gauge("cluster_availability",
                "Fraction of completed requests served",
                callback=lambda self=self: self.availability)
        r.gauge("cluster_remigration_fraction",
                "Cached-key remigration fraction of the last membership change",
                callback=lambda self=self: self.last_remigration_fraction)

    @property
    def availability(self) -> float:
        """Fraction of completed requests served (1.0 with no traffic)."""
        if not self.completed:
            return 1.0
        return 1.0 - self.failed / self.completed

    def snapshot(self) -> dict:
        """Flat, JSON-friendly view of the cluster scoreboard."""
        return {
            **self._counter_snapshot(),
            "availability": self.availability,
            "last_remigration_fraction": self.last_remigration_fraction,
            "attribution": self.attribution.snapshot(),
        }

    def report(self) -> str:
        """Plain-text tail-latency attribution over the fleet's requests
        (the cluster counters render through the frontend's report)."""
        return self.attribution.report()
