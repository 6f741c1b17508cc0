"""`ClusterFrontend` — the sharded serving fleet.

Everything below the frontend already exists: each shard is a full
:class:`~repro.serve.server.SpMMServer` (plan cache, admission control,
retries, breakers, OOM degradation) — optionally wrapped in a
:class:`~repro.serve.scheduler.Scheduler` for fingerprint-coalesced
micro-batching — over its own device pool, built by the caller's
``make_shard(shard_index)`` factory.  The frontend adds the fleet layer
on top:

* **cache-aware routing** — requests are fingerprinted once and routed
  through a :class:`~repro.serve.cluster.ring.ShardRing`, so every
  request for the same matrix lands on the shard already holding its
  composed plan;
* **hot-key replication** — a
  :class:`~repro.serve.cluster.hotkeys.WindowedFrequencySketch` watches
  the recent stream; once one fingerprint dominates (a Zipf head), its
  cached plan is copied to the next ``replication`` shards on the ring
  and traffic is spread among the replicas with power-of-two-choices
  routing (pick two seeded-random replicas, send to the less loaded);
* **elastic membership** — :meth:`add_shard` / :meth:`remove_shard`
  re-balance only the ~1/N of the key space the ring reassigns, handing
  the affected cached plans, their OOM pins and their bandit evidence
  to the new owner in memory (cross-shard warm start: the receiving
  shard's first request for a migrated key is a cache hit, not a
  recompose);
* **rebalance-safe chaos** — :meth:`kill_shard` models abrupt shard
  death: the ring is repaired, the dead shard's queued requests are
  re-routed to the survivors, and its cache is simply lost (survivors
  recompose on miss).  A request failed by a shard (e.g. its whole
  device pool died) is re-routed to the next live shard on the ring
  instead of being surfaced as a failure, so cluster availability is at
  least the single-node availability PR 3 established.

The frontend speaks the serving protocol of
:class:`~repro.serve.server.ServingSurface`, like the server and the
scheduler, and speaks it to its shards too: a routed request reaches the
shard's scheduler (or server) through ``submit(prepared=...)`` and
``drain``, carrying the fingerprint taken at ingress.  Because every
shard composes with the same deterministic pipeline and executes on the
same analytical device model, responses are bit-identical to single-node
serving no matter which shard (or replica) serves a request — the
cluster benchmark asserts exactly this.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from repro.core.pipeline import LiteForm
from repro.obs import (
    SLOEngine,
    TraceContext,
    Tracer,
    get_tracer,
    merge_traces,
    set_tracer,
    write_merged,
)
from repro.serve.cluster.hotkeys import WindowedFrequencySketch
from repro.serve.cluster.metrics import ClusterMetrics
from repro.serve.cluster.ring import DEFAULT_VIRTUAL_NODES, ShardRing
from repro.serve.fingerprint import PlanKey, fingerprint_csr
from repro.serve.metrics import FLEET_COUNTERS
from repro.serve.plan_cache import CacheEntry
from repro.serve.scheduler import Scheduler
from repro.serve.server import OpRequest, OpResponse, ServingSurface, SpMMServer


@dataclass
class _Pending:
    """One routed-but-not-yet-served request, fingerprinted at submit."""

    ticket: int
    request: OpRequest
    A: sp.csr_matrix
    key: PlanKey
    #: Shards that already failed this request (reroutes avoid them).
    excluded: set[str] = field(default_factory=set)
    #: Latency already burned on shards that failed this request —
    #: charged to the "migration" stage of the final attribution.
    migration_ms: float = 0.0


@dataclass
class _Shard:
    """One fleet member: a server, the surface that drives it (the server
    itself or a scheduler over it), and its queue."""

    shard_id: str
    server: SpMMServer
    surface: SpMMServer | Scheduler
    pending: list[_Pending] = field(default_factory=list)
    alive: bool = True
    #: Routing decisions that chose this shard.
    routed: int = 0
    #: Requests whose final response this shard produced.
    completed: int = 0
    #: Simulated kernel milliseconds charged to this shard's pool.
    exec_busy_ms: float = 0.0

    @property
    def busy_ms(self) -> float:
        """Simulated busy time normalized by the shard's pool width."""
        return self.exec_busy_ms / len(self.server.devices)


@dataclass(frozen=True)
class MembershipChange:
    """Outcome report of one elastic-membership operation."""

    kind: str  # "add" | "remove" | "kill"
    shard_id: str
    #: Cached plans resident cluster-wide when the change started.
    cached_keys: int
    #: Cached plans whose owning shard changed.
    keys_moved: int
    #: Cached plans actually handed to their new owner (killed shards
    #: lose theirs instead).
    plans_migrated: int
    #: Queued requests re-routed off the departing shard.
    requeued: int

    @property
    def fraction(self) -> float:
        """``keys_moved / cached_keys`` — the measured remigration cost."""
        return self.keys_moved / self.cached_keys if self.cached_keys else 0.0


class ClusterFrontend(ServingSurface):
    """Sharded serving fleet with cache-aware consistent-hash routing."""

    #: Requests submitted between drains during :meth:`replay`.  Small
    #: enough that hot-key replication reacts within a trace (a replica
    #: can only receive a plan the primary has already composed), large
    #: enough that per-shard schedulers still coalesce micro-batches.
    REPLAY_CHUNK = 8
    #: Observations in the window before a key can count as hot: the
    #: floor keeps a nearly-empty window from calling its first key hot.
    HOT_MIN_COUNT = 4

    def __init__(
        self,
        liteform: LiteForm,
        num_shards: int = 4,
        *,
        make_shard: Callable[[int], SpMMServer | Scheduler] | None = None,
        virtual_nodes: int = DEFAULT_VIRTUAL_NODES,
        replication: int = 1,
        hot_fraction: float = 0.1,
        spill_dir: str | Path | None = None,
        seed: int = 0,
        metrics: ClusterMetrics | None = None,
        slo: SLOEngine | bool | None = None,
    ):
        """``num_shards`` initial shards, each built by
        ``make_shard(shard_index)``: an :class:`SpMMServer` with its own
        plan cache and device pool, or a :class:`Scheduler` over one for
        coalesced micro-batching.  The factory is called once per shard,
        :meth:`add_shard` included, so per-shard resources (fault-injecting
        devices, bandit seeds) can depend on the index.  Shards must agree
        on whether they carry a bandit: a handoff merges bandit evidence
        between them.  The default is ``SpMMServer(liteform=liteform)``
        (one V100-class device, a default-size plan cache, default
        retries, static selection).

        ``replication`` > 1 enables hot-key replication (a fingerprint
        above ``hot_fraction`` of the last
        :attr:`WindowedFrequencySketch.WINDOW` requests, and seen at
        least :attr:`HOT_MIN_COUNT` times, is replicated to that many
        shards).  ``spill_dir`` is accepted and ignored: plans move
        between shards in memory.  ``seed`` drives power-of-two-choices
        routing among replicas.

        ``slo`` attaches a burn-rate alerting engine
        (:class:`repro.obs.SLOEngine`; ``True`` = the stock objectives)
        fed with *attempt-level* outcomes on the replay's virtual
        timeline: a shard-level failure counts against availability even
        when the reroute ultimately serves the request, so a fault storm
        pages before request-level availability breaches.
        """
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        if replication < 1:
            raise ValueError(f"replication must be >= 1, got {replication}")
        if not 0.0 < hot_fraction <= 1.0:
            raise ValueError(f"hot_fraction must be in (0, 1], got {hot_fraction}")
        super().__init__()
        self.liteform = liteform
        self.make_shard = make_shard or (lambda index: SpMMServer(liteform=liteform))
        self.replication = int(replication)
        self.hot_fraction = float(hot_fraction)
        self.metrics = metrics or ClusterMetrics()
        if slo is True:
            slo = SLOEngine(registry=self.metrics.registry)
        elif isinstance(slo, SLOEngine) and slo.registry is None:
            slo.registry = self.metrics.registry
        self.slo: SLOEngine | None = slo or None
        #: Per-shard tracer lanes, created lazily once tracing is on.
        self._shard_tracers: dict[str, Tracer] = {}
        #: Ingress tracer remembered from the last traced submit, so the
        #: merged trace keeps its frontend lane even after the caller
        #: uninstalls the global tracer.
        self._frontend_tracer: Tracer | None = None
        #: Virtual time of the replay (feeds SLO evaluation windows).
        self._clock_ms = 0.0
        self.ring = ShardRing(virtual_nodes=virtual_nodes)
        self._sketch = WindowedFrequencySketch()
        self._rng = np.random.default_rng(seed)
        self._shards: dict[str, _Shard] = {}
        self._next_shard_index = 0
        #: Ring version at which each hot key was last replicated.
        self._replicated: dict[PlanKey | str, int] = {}
        self._ring_version = 0
        self._hot_seen: set[PlanKey | str] = set()
        for _ in range(num_shards):
            shard = self._new_shard()
            self._shards[shard.shard_id] = shard
            self.ring.add_shard(shard.shard_id)
        r = self.metrics.registry
        r.gauge("cluster_shards_live", "Live shards on the ring",
                callback=lambda self=self: len(self.ring))
        r.gauge("cluster_routing_skew",
                "Max over mean per-shard routed share (1.0 = balanced)",
                callback=lambda self=self: self.routing_skew)
        r.gauge("cluster_throughput_rps",
                "Served requests per simulated second of fleet busy time",
                callback=lambda self=self: self.aggregate_throughput_rps)

    # -- fleet construction --------------------------------------------
    def _new_shard(self) -> _Shard:
        index = self._next_shard_index
        self._next_shard_index += 1
        surface = self.make_shard(index)
        server = surface.server if isinstance(surface, Scheduler) else surface
        return _Shard(shard_id=f"shard-{index}", server=server, surface=surface)

    def _live(self) -> list[_Shard]:
        """Live shards in ring (sorted-id) order."""
        return [self._shards[sid] for sid in self.ring.shards]

    @property
    def shards(self) -> tuple[str, ...]:
        """Live shard ids."""
        return self.ring.shards

    # -- tracing lanes -------------------------------------------------
    def _shard_lane(self, shard_id: str) -> Tracer | None:
        """The shard's private tracer lane; None while tracing is off.

        Lanes are created lazily on first traced use (the frontend is
        usually constructed before the CLI installs a tracer) and kept
        after shard death, so a killed shard's spans stay in the merged
        trace.
        """
        tracer = get_tracer()
        if not tracer.enabled:
            return None
        if isinstance(tracer, Tracer):
            self._frontend_tracer = tracer
        lane = self._shard_tracers.get(shard_id)
        if lane is None:
            lane = self._shard_tracers[shard_id] = Tracer(name=shard_id)
        return lane

    def _mark_enqueued(
        self, shard: _Shard, item: _Pending, kind: str
    ) -> None:
        """Drop a zero-length ``enqueue`` span on the shard's lane —
        the cross-lane breadcrumb that shows which shards a request
        visited even before (or without) being served there."""
        lane = self._shard_lane(shard.shard_id)
        ctx = item.request.ctx
        if lane is None or ctx is None:
            return
        with lane.span("enqueue", ctx=ctx, kind=kind, key=str(item.key)[:16]):
            pass

    def lanes(self) -> dict[str, Tracer]:
        """Every tracer lane for :func:`repro.obs.merge_traces`: the
        frontend (the installed global tracer, or the one remembered
        from the last traced submit — its ingress, route, and migrate
        spans) plus each shard that ever served traced work."""
        out: dict[str, Tracer] = {}
        tracer = get_tracer()
        if tracer.enabled and isinstance(tracer, Tracer):
            out["frontend"] = tracer
        elif self._frontend_tracer is not None:
            out["frontend"] = self._frontend_tracer
        for shard_id in sorted(self._shard_tracers):
            out[shard_id] = self._shard_tracers[shard_id]
        return out

    def merged_trace(self) -> dict:
        """One Chrome/Perfetto trace object across all lanes."""
        return merge_traces(self.lanes())

    def write_trace(self, path: str | Path) -> Path:
        """Write the merged multi-lane trace to ``path``."""
        return write_merged(self.lanes(), path)

    # -- routing -------------------------------------------------------
    def _route(self, key: PlanKey | str, *, observe: bool = True) -> _Shard:
        """Pick the shard for ``key``: ring owner, or power-of-two-choices
        among the replica set once the key is hot."""
        if observe:
            self._sketch.observe(key)
        tracer = get_tracer()
        with tracer.span("route", key=str(key)[:16]) as span:
            hot = (
                self.replication > 1
                and len(self.ring) > 1
                and self._sketch.count(key) >= self.HOT_MIN_COUNT
                and self._sketch.frequency(key) >= self.hot_fraction
            )
            if hot:
                if key not in self._hot_seen:
                    self._hot_seen.add(key)
                    self.metrics.hot_keys += 1
                # Spreading traffic only makes sense once the replicas
                # hold the plan; until then (primary hasn't composed yet)
                # keep routing to the primary so the plan exists to copy.
                hot = self._ensure_replicated(key)
            if hot:
                replicas = self.ring.route_replicas(key, self.replication)
                if len(replicas) > 1:
                    # Power of two choices: sample two replicas, take the
                    # one with the shorter queue (ties keep ring order).
                    i, j = self._rng.choice(len(replicas), size=2, replace=False)
                    a, b = self._shards[replicas[i]], self._shards[replicas[j]]
                    if len(b.pending) < len(a.pending):
                        a = b
                    self.metrics.replica_routes += 1
                    span.set(hot=True, shard=a.shard_id)
                    return a
            shard = self._shards[self.ring.route(key)]
            span.set(hot=hot, shard=shard.shard_id)
            return shard

    @property
    def routing_skew(self) -> float:
        """Max over mean routed count across live shards (1.0 = balanced)."""
        counts = [s.routed for s in self._live()]
        total = sum(counts)
        if not counts or not total:
            return 1.0
        return max(counts) / (total / len(counts))

    # -- plan movement (in-process handoff) ----------------------------
    def _handoff(self, moves: list[tuple[CacheEntry, _Shard]], receiver: _Shard) -> int:
        """Hand ``(entry, donor)`` pairs to ``receiver``; returns plans added.

        Each plan enters through :meth:`SpMMServer.adopt`, which keeps
        its donor's structural-OOM pin.  With adaptive serving the receiver's bandit adopts
        the moved keys' evidence: first from donors that left the ring
        (nowhere else holds it), then from the other live shards in ring
        order; the first source that has a key wins.  A replica shares
        its donor's plan object: served plans are never mutated.
        """
        server = receiver.server
        added = sum(server.adopt(entry, donor.server) for entry, donor in moves)
        if server.bandit is not None and moves:
            keys = [entry.key for entry, _ in moves]
            departed = {d.shard_id: d for _, d in moves if not d.alive}
            live = [s for s in self._live() if s is not receiver]
            for source in [*departed.values(), *live]:
                server.bandit.merge_state(source.server.bandit.state_dict(keys))
        return added

    def _ensure_replicated(self, key: PlanKey | str) -> bool:
        """Copy a hot key's cached plan to its replica shards (once per
        ring version — membership changes re-derive the replica set).
        Returns True once the replica set holds the plan; False while the
        primary has not composed it yet (nothing to copy)."""
        if self._replicated.get(key) == self._ring_version:
            return True
        primary = self._shards[self.ring.route(key)]
        entry = primary.server.cache.peek(key)
        if entry is None:
            # Nothing composed yet — retry on a later request once the
            # primary has the plan (the hot signal persists while the
            # traffic does).
            return False
        targets = [
            sid
            for sid in self.ring.route_replicas(key, self.replication)
            if sid != primary.shard_id
        ]
        if targets:
            with get_tracer().span(
                "migrate", kind="replicate", key=str(key)[:16], replicas=len(targets)
            ):
                for sid in targets:
                    self.metrics.plans_replicated += self._handoff(
                        [(entry, primary)], self._shards[sid]
                    )
        self._replicated[key] = self._ring_version
        return True

    # -- serving protocol ----------------------------------------------
    def _enqueue(self, ticket: int, request: OpRequest, prepared) -> None:
        """Fingerprint (unless ``prepared``), route, and queue a request.

        This is the cluster's trace ingress: with tracing on, a
        :class:`~repro.obs.TraceContext` is minted here (unless the
        caller already attached one) and rides on a copy of the request
        through routing, shard queueing, batching, serving, and any
        reroute — so every span the request touches, on every lane,
        shares one trace id, and the caller's request is left as it was.
        """
        tracer = get_tracer()
        if request.ctx is None and tracer.enabled:
            request = replace(request, ctx=TraceContext.mint("req"))
        with tracer.span("ingress", ctx=request.ctx, ticket=ticket) as span:
            if prepared is None:
                A = SpMMServer._canonical(request.matrix)
                prepared = (A, PlanKey(fingerprint_csr(A), request.op, request.J))
            A, key = prepared
            shard = self._route(key)
            span.set(key=str(key)[:16], shard=shard.shard_id)
            item = _Pending(ticket=ticket, request=request, A=A, key=key)
            shard.pending.append(item)
            shard.routed += 1
            self.metrics.routed += 1
            self._mark_enqueued(shard, item, kind="submit")

    def serve_graph(self, graph):
        """Serve one :class:`repro.serve.graph.GraphRequest` on the shard
        owning its anchor key.

        The anchor is the graph's first device stage with a literal
        matrix: every stage of a GNN chain shares that adjacency's
        pattern, so routing the whole graph by one key keeps the chain's
        compose/reuse locality on a single shard (hot-key replication and
        membership moves apply to it like any other key).  The graph runs
        under the shard's tracer lane; stage outcomes land on the shard
        server's ``serve_graph_*`` counters and the graph outcome on the
        cluster's ``completed``/``failed`` scoreboard.
        """
        from repro.serve.graph import GraphEngine, graph_anchor

        tracer = get_tracer()
        if graph.ctx is None and tracer.enabled:
            graph = replace(graph, ctx=TraceContext.mint("graph"))
        with tracer.span(
            "ingress", ctx=graph.ctx, graph=graph.name or "anonymous"
        ) as span:
            anchor = graph_anchor(graph)
            shard = self._route(anchor.key)
            span.set(key=str(anchor.key)[:16], shard=shard.shard_id)
            shard.routed += 1
            self.metrics.routed += 1
            self.metrics.graphs += 1
        lane = self._shard_lane(shard.shard_id)
        previous = set_tracer(lane) if lane is not None else None
        try:
            response = GraphEngine(shard.server).run(graph, anchor=anchor)
        finally:
            if previous is not None:
                set_tracer(previous)
        shard.completed += 1
        self.metrics.completed += 1
        self.metrics.graph_stages += response.device_stages
        if response.failed:
            self.metrics.failed += 1
        return response

    def _process(self) -> None:
        # Rerouting a failed request enqueues it on another shard, so
        # loop until every queue is empty.
        while True:
            busy = [s for s in self._live() if s.pending]
            if not busy:
                return
            for shard in busy:
                items, shard.pending = shard.pending, []
                for item, response in zip(items, self._serve_on(shard, items)):
                    self._finish(shard, item, response)

    def _serve_on(self, shard: _Shard, items: list[_Pending]) -> list[OpResponse]:
        # Each shard records onto its own tracer lane (swapped in around
        # the serve call), so the merged trace renders one process track
        # per shard; the request's TraceContext links the lanes.
        lane = self._shard_lane(shard.shard_id)
        previous = set_tracer(lane) if lane is not None else None
        try:
            for item in items:
                shard.surface.submit(item.request, prepared=(item.A, item.key))
            # Shard tickets are monotone and drain returns the unclaimed
            # responses in ticket order: our submission order.
            return shard.surface.drain()
        finally:
            if previous is not None:
                set_tracer(previous)

    def _finish(self, shard: _Shard, item: _Pending, response: OpResponse) -> None:
        if self.slo is not None:
            # Attempt-level feed: a shard-level failure burns budget even
            # when the reroute below ultimately serves the request — the
            # leading indicator that makes the burn-rate alert fire
            # before request-level availability breaches.
            self.slo.tracer = get_tracer()
            self.slo.record(
                self._clock_ms,
                ok=not response.failed,
                latency_ms=response.latency_ms + item.migration_ms,
                deadline_hit=(
                    None
                    if item.request.deadline_ms is None
                    else not response.deadline_missed
                ),
            )
        if response.failed:
            item.excluded.add(shard.shard_id)
            target = next(
                (
                    sid
                    for sid in self.ring.route_replicas(item.key, len(self.ring))
                    if sid not in item.excluded
                ),
                None,
            )
            if target is not None:
                self.metrics.rerouted += 1
                self.metrics.routed += 1
                # The latency burned on the failing shard is this
                # request's migration cost, attributed when it completes.
                item.migration_ms += response.latency_ms
                dest = self._shards[target]
                dest.pending.append(item)
                dest.routed += 1
                self._mark_enqueued(dest, item, kind="reroute")
                return
        shard.completed += 1
        if response.measurement is not None:
            shard.exec_busy_ms += (
                response.measurement.time_ms / max(1, response.batch_size)
            )
        self.metrics.completed += 1
        if response.failed:
            self.metrics.failed += 1
        self._attribute(shard, item, response)
        self._completed[item.ticket] = response

    def _attribute(
        self, shard: _Shard, item: _Pending, response: OpResponse
    ) -> None:
        """Record the finished request's stage breakdown (cluster view)."""
        compose_ms = response.compose_overhead_s * 1e3
        launch_ms = max(
            0.0,
            response.latency_ms
            - response.queue_wait_ms
            - compose_ms
            - response.backoff_ms,
        )
        self.metrics.attribution.record(
            response.trace_id,
            {
                "queue_wait": response.queue_wait_ms,
                "compose": compose_ms,
                "launch": launch_ms,
                "retry_backoff": response.backoff_ms,
                "migration": item.migration_ms,
            },
            total_ms=response.latency_ms + item.migration_ms,
            shard=shard.shard_id,
        )

    # -- elastic membership --------------------------------------------
    def _primary_owned(self) -> dict[PlanKey, _Shard]:
        """``{key: shard}`` for every cached plan resident on its ring
        owner.  Replica copies (hot-key replication leaves duplicates on
        successor shards) are excluded: for remigration accounting only
        the *primary* placement is the ring's promise — duplicates are
        disposable and never migrated."""
        owned: dict[PlanKey, _Shard] = {}
        for shard in self._live():
            for key in shard.server.cache.keys():
                if self.ring.route(key) == shard.shard_id:
                    owned[key] = shard
        return owned

    def add_shard(self) -> MembershipChange:
        """Grow the fleet by one shard, migrating the ~1/N of cached plans
        the ring reassigns to it (warm start)."""
        shard = self._new_shard()
        with get_tracer().span("migrate", kind="add", shard=shard.shard_id):
            owned = self._primary_owned()
            self._shards[shard.shard_id] = shard
            self.ring.add_shard(shard.shard_id)
            self._ring_version += 1
            # Only arcs captured by the new shard's points change owner —
            # exactly the keys now routing somewhere other than their old
            # primary.
            moving = [
                (key, donor)
                for key, donor in owned.items()
                if self.ring.route(key) != donor.shard_id
            ]
            migrated = self._handoff(
                [(donor.server.cache.pop(key), donor) for key, donor in moving], shard
            )
        self.metrics.shards_added += 1
        self.metrics.plans_migrated += migrated
        change = MembershipChange(
            kind="add",
            shard_id=shard.shard_id,
            cached_keys=len(owned),
            keys_moved=len(moving),
            plans_migrated=migrated,
            requeued=0,
        )
        self.metrics.last_remigration_fraction = change.fraction
        return change

    def remove_shard(self, shard_id: str) -> MembershipChange:
        """Gracefully retire a shard: repair the ring, re-route its queue,
        and migrate its primary-owned cached plans to their new owners
        (replica copies it held are duplicates and die with it)."""
        shard = self._departing(shard_id)
        with get_tracer().span("migrate", kind="remove", shard=shard_id):
            owned = self._primary_owned()
            departing = [
                e
                for e in shard.server.cache.entries()
                if owned.get(e.key) is shard
            ]
            self.ring.remove_shard(shard_id)
            self._ring_version += 1
            shard.alive = False
            requeued = self._requeue(shard)
            migrated = 0
            by_dest: dict[str, list[tuple[CacheEntry, _Shard]]] = {}
            for e in departing:
                by_dest.setdefault(self.ring.route(e.key), []).append((e, shard))
            for dest, moves in sorted(by_dest.items()):
                migrated += self._handoff(moves, self._shards[dest])
            shard.server.cache.clear()
        self.metrics.shards_removed += 1
        self.metrics.plans_migrated += migrated
        change = MembershipChange(
            kind="remove",
            shard_id=shard_id,
            cached_keys=len(owned),
            keys_moved=len(departing),
            plans_migrated=migrated,
            requeued=requeued,
        )
        self.metrics.last_remigration_fraction = change.fraction
        return change

    def kill_shard(self, shard_id: str) -> MembershipChange:
        """Chaos: the shard dies *now*.  The ring is repaired and its
        queued requests re-routed, but its cached plans are lost — the
        survivors recompose on miss (no warm start)."""
        shard = self._departing(shard_id)
        with get_tracer().span("migrate", kind="kill", shard=shard_id):
            owned = self._primary_owned()
            lost = sum(1 for donor in owned.values() if donor is shard)
            self.ring.remove_shard(shard_id)
            self._ring_version += 1
            shard.alive = False
            requeued = self._requeue(shard)
            shard.server.cache.clear()
        self.metrics.shards_killed += 1
        change = MembershipChange(
            kind="kill",
            shard_id=shard_id,
            cached_keys=len(owned),
            keys_moved=lost,
            plans_migrated=0,
            requeued=requeued,
        )
        self.metrics.last_remigration_fraction = change.fraction
        return change

    def _departing(self, shard_id: str) -> _Shard:
        shard = self._shards.get(shard_id)
        if shard is None or not shard.alive:
            raise KeyError(f"no live shard {shard_id!r}")
        if len(self.ring) <= 1:
            raise ValueError("cannot remove the last live shard")
        return shard

    def _requeue(self, departed: _Shard) -> int:
        """Re-route a departed shard's queued requests (no request loss)."""
        items, departed.pending = departed.pending, []
        for item in items:
            target = self._route(item.key, observe=False)
            target.pending.append(item)
            target.routed += 1
            self.metrics.routed += 1
            self._mark_enqueued(target, item, kind="requeue")
        return len(items)

    # -- replay --------------------------------------------------------
    def replay(
        self,
        requests: list[OpRequest],
        *,
        kill_shard_at_ms: float | None = None,
        kill_shard: str | None = None,
    ) -> ClusterMetrics:
        """Serve a whole trace in order, optionally killing a shard
        mid-stream (``kill_shard_at_ms`` on the trace's virtual timeline;
        untimed traces use the request index as milliseconds).  Requests
        submitted before the kill are drained first, so they exercise the
        pre-kill topology; everything after re-routes around the corpse.
        The victim defaults to the busiest shard — worst-case chaos."""
        timed = any(r.arrival_ms > 0 for r in requests)
        killed = False
        with get_tracer().span("cluster_replay", requests=len(requests)):
            for index, request in enumerate(requests):
                now = request.arrival_ms if timed else float(index)
                self._clock_ms = max(self._clock_ms, now)
                if (
                    kill_shard_at_ms is not None
                    and not killed
                    and now >= kill_shard_at_ms
                    and len(self.ring) > 1
                ):
                    self.drain()
                    victim = kill_shard or max(
                        self._live(), key=lambda s: (s.routed, s.shard_id)
                    ).shard_id
                    self.kill_shard(victim)
                    killed = True
                self.submit(request)
                if (index + 1) % self.REPLAY_CHUNK == 0:
                    self.drain()
            self.drain()
            self.wait_for_speculation()
        return self.metrics

    def wait_for_speculation(self, timeout: float | None = None) -> int:
        """Settle every live shard's in-flight background composes and
        apply their swaps (see :meth:`SpMMServer.wait_for_speculation`);
        returns the total swaps applied across the fleet.  Called once at
        the end of :meth:`replay` — never per drain, which would serialize
        the composes the speculation exists to overlap."""
        return sum(
            s.server.wait_for_speculation(timeout=timeout) for s in self._live()
        )

    # -- fleet accounting ----------------------------------------------
    @property
    def makespan_ms(self) -> float:
        """Longest per-shard simulated busy time — the fleet's critical
        path under saturation (dead shards' past work still counts)."""
        return max((s.busy_ms for s in self._shards.values()), default=0.0)

    @property
    def aggregate_throughput_rps(self) -> float:
        """Served requests per simulated second of the busiest shard."""
        served = self.metrics.completed - self.metrics.failed
        makespan = self.makespan_ms
        if not served or makespan <= 0:
            return 0.0
        return served / (makespan / 1e3)

    @property
    def scaling_efficiency(self) -> float:
        """Fraction of linear scaling achieved: total simulated work over
        (live shards x critical path).  1.0 = perfectly balanced fleet."""
        shards = [s for s in self._shards.values() if s.busy_ms > 0 or s.alive]
        makespan = self.makespan_ms
        if not shards or makespan <= 0:
            return 1.0
        total = sum(s.busy_ms for s in shards)
        return total / (len(shards) * makespan)

    def snapshot(self) -> dict:
        """Cluster scoreboard plus a per-shard breakdown (JSON-friendly)."""
        fleet = [s.server.metrics for s in self._shards.values()]
        out = {
            "cluster": {
                **self.metrics.snapshot(),
                "shards_live": len(self.ring),
                "routing_skew": self.routing_skew,
                "makespan_ms": self.makespan_ms,
                "throughput_rps": self.aggregate_throughput_rps,
                "scaling_efficiency": self.scaling_efficiency,
                **{name: sum(getattr(m, name) for m in fleet) for name in FLEET_COUNTERS},
            },
            "slo": self.slo.snapshot() if self.slo is not None else None,
            "shards": [],
        }
        for shard_id in sorted(self._shards):
            s = self._shards[shard_id]
            m = s.server.metrics
            out["shards"].append(
                {
                    "shard_id": shard_id,
                    "alive": s.alive,
                    "devices": len(s.server.devices),
                    "routed": s.routed,
                    "completed": s.completed,
                    "busy_ms": s.busy_ms,
                    "qps": (
                        s.completed / (s.busy_ms / 1e3) if s.busy_ms > 0 else 0.0
                    ),
                    "requests": m.requests,
                    "hit_rate": m.hit_rate,
                    "availability": m.availability,
                    "plan_reuses": m.plan_reuses,
                    "graph_stages": m.graph_stages,
                    "cache": s.server.cache.stats(),
                }
            )
        return out

    def report(self) -> str:
        """Plain-text fleet report for terminal output."""
        m = self.metrics
        lines = [
            f"shards              {len(self.ring)} live "
            f"(+{m.shards_added} added, -{m.shards_removed} removed, "
            f"x{m.shards_killed} killed)",
            f"routed              {m.routed} "
            f"({m.replica_routes} via replicas, {m.rerouted} rerouted)",
            f"completed/failed    {m.completed}/{m.failed} "
            f"(availability {m.availability:.2%})",
            f"hot keys            {m.hot_keys} "
            f"({m.plans_replicated} plans replicated)",
            f"migrated plans      {m.plans_migrated} "
            f"(last remigration {m.last_remigration_fraction:.1%})",
            f"routing skew        {self.routing_skew:.2f}x",
            f"fleet makespan      {self.makespan_ms:.3f} simulated ms "
            f"({self.aggregate_throughput_rps:.1f} req/s, "
            f"{self.scaling_efficiency:.0%} of linear)",
        ]
        for shard_id in sorted(self._shards):
            s = self._shards[shard_id]
            state = "" if s.alive else " [DEAD]"
            lines.append(
                f"{shard_id:20s}{s.routed} routed, {s.completed} served, "
                f"{s.server.metrics.hit_rate:.0%} hits, "
                f"{s.busy_ms:.3f} ms busy{state}"
            )
        if self.metrics.attribution.count:
            lines.append(self.metrics.report())
        if self.slo is not None:
            lines.append(self.slo.report())
        return "\n".join(lines)
