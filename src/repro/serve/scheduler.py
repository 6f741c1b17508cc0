"""Open-loop batched scheduling in front of :class:`SpMMServer`.

The paper's amortization argument (Figures 8-9) gets stronger the more
launches share one composed plan, and wider dense operands raise SpMM
arithmetic intensity (Yang et al., "Design Principles for Sparse Matrix
Multiplication on the GPU"), so a serving layer should not hand requests
to the pipeline one at a time.  This module adds the two missing pieces:

* :class:`Batcher` — per-``(fingerprint, J)`` queues.  Requests that
  share a plan-cache key are coalesced into one micro-batch: one cache
  lookup (or one compose) for the whole group, the dense operands
  stacked column-wise into a single wider simulated launch, and the
  result split back per request (bit-identical to serving them one by
  one; see :meth:`SpMMServer.serve_batch`).  A group dispatches when it
  reaches ``max_batch`` or its oldest member has waited ``max_wait_ms``;
  dispatch order across ready groups is earliest-deadline-first.

* :class:`Scheduler` — a discrete-event loop over *virtual* (simulated)
  milliseconds.  Requests arrive at their ``arrival_ms`` timestamps
  (:func:`repro.serve.workload.generate_workload` with
  ``arrival_rate_rps`` set), wait in the batcher — the wait is charged
  against their deadline, so admission control sees queueing delay —
  and dispatch onto per-device worker queues over the server's
  :class:`~repro.gpu.SimulatedDevice` pool.  Backpressure is explicit:
  when more than ``max_queue`` requests are waiting, new arrivals are
  *shed* — served immediately on the degraded CSR path — rather than
  growing the queue without bound.  Each dispatched batch reuses the
  server's retry/breaker/OOM-degradation machinery unchanged.

The scheduler speaks the serving protocol of
:class:`~repro.serve.server.ServingSurface`, like :class:`SpMMServer`;
``replay`` is the one-call open-loop run.  Time is virtual throughout:
the loop never sleeps, it advances a clock across arrival/flush events
and device-busy intervals, so a multi-second trace replays in
milliseconds of wall time and throughput is reported in requests per
*simulated* second.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import scipy.sparse as sp

from repro.obs import MetricsRegistry, get_tracer
from repro.serve.fingerprint import PlanKey, fingerprint_csr
from repro.serve.metrics import LatencySeries, Scoreboard, _counter
from repro.serve.server import OpRequest, OpResponse, ServingSurface, SpMMServer

#: Bucket bounds of the batch-size histogram (powers of two — batches are
#: capped by ``max_batch``, itself typically a power of two).
BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)


@dataclass
class SchedulerMetrics(Scoreboard):
    """Scoreboard of the batched scheduler (queueing view of traffic).

    Complements :class:`~repro.serve.metrics.ServerMetrics` (which keeps
    counting per-request serving outcomes underneath): this one tracks
    what batching and the bounded queue did — how many launches the
    traffic collapsed into, how long requests waited, and how many were
    shed.  Every field is published onto :attr:`registry`.
    """

    #: Requests handed to :meth:`Scheduler.submit`.
    submitted: int = _counter("sched_submitted_total", "Requests submitted to the scheduler")
    #: Requests dispatched through the batcher (excludes shed requests).
    dispatched: int = _counter("sched_dispatched_total", "Requests dispatched through batches")
    #: Launches of dispatched requests: a fused group is one launch, a
    #: group the server serves singly (spmv, sddmm) one per member.
    batches: int = _counter("sched_batches_total", "Micro-batches launched")
    #: Requests that shared their launch with at least one other request.
    coalesced: int = _counter(
        "sched_coalesced_total", "Requests sharing a launch with at least one other")
    #: Arrivals shed to the degraded CSR path by backpressure.
    shed: int = _counter("sched_shed_total", "Arrivals shed by backpressure")
    #: Virtual milliseconds spent queued before dispatch, per request.
    queue_wait_ms: LatencySeries = field(default_factory=LatencySeries)
    #: Requests per launched micro-batch.
    batch_size: LatencySeries = field(
        default_factory=lambda: LatencySeries(unit="requests")
    )
    #: Virtual timestamp at which the last dispatched work completed.
    makespan_ms: float = 0.0
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)

    def __post_init__(self) -> None:
        self._publish_counters()
        r = self.registry
        r.gauge("sched_coalesce_rate",
                "Fraction of dispatched requests that shared a launch",
                callback=lambda self=self: self.coalesce_rate)
        r.gauge("sched_makespan_ms",
                "Virtual completion time of the last dispatched batch",
                callback=lambda self=self: self.makespan_ms)
        self._batch_hist = r.histogram(
            "sched_batch_size", "Requests per micro-batch",
            buckets=BATCH_SIZE_BUCKETS,
        )
        self._wait_hist = r.histogram(
            "sched_queue_wait_ms", "Virtual queueing delay before dispatch (ms)"
        )

    def observe_batch(self, size: int, waits_ms: list[float]) -> None:
        """Record one launch of ``size`` requests and their queue waits."""
        self.batches += 1
        self.dispatched += size
        if size > 1:
            self.coalesced += size
        self.batch_size.add(size)
        self._batch_hist.observe(size)
        for w in waits_ms:
            self.queue_wait_ms.add(w)
            self._wait_hist.observe(w)

    @property
    def coalesce_rate(self) -> float:
        """Fraction of dispatched requests that shared their launch."""
        return self.coalesced / self.dispatched if self.dispatched else 0.0

    @property
    def mean_batch_size(self) -> float:
        return self.dispatched / self.batches if self.batches else 0.0

    @property
    def throughput_rps(self) -> float:
        """Completed requests per *simulated* second of the replay."""
        done = self.dispatched + self.shed
        if not done or self.makespan_ms <= 0:
            return 0.0
        return done / (self.makespan_ms / 1e3)

    def snapshot(self) -> dict:
        """Flat, JSON-friendly view of the scheduler scoreboard."""
        return {
            **self._counter_snapshot(),
            "coalesce_rate": self.coalesce_rate,
            "mean_batch_size": self.mean_batch_size,
            "makespan_ms": self.makespan_ms,
            "throughput_rps": self.throughput_rps,
            "queue_wait_ms": self.queue_wait_ms.summary(),
            "batch_size": self.batch_size.summary(),
        }

    def report(self) -> str:
        """Plain-text summary for terminal output."""
        w = self.queue_wait_ms.summary()
        return "\n".join([
            f"submitted           {self.submitted}",
            f"dispatched/shed     {self.dispatched}/{self.shed}",
            f"batches             {self.batches} "
            f"(mean size {self.mean_batch_size:.2f}, "
            f"coalesce rate {self.coalesce_rate:.1%})",
            f"makespan            {self.makespan_ms:.3f} simulated ms "
            f"({self.throughput_rps:.1f} req/s simulated)",
            "queue wait ms       "
            f"p50={w['p50']:.3f} p95={w['p95']:.3f} p99={w['p99']:.3f} "
            f"max={w['max']:.3f}",
        ])


@dataclass
class _QueuedRequest:
    """One queued arrival: the request plus everything computed at
    admission so dispatch never re-fingerprints."""

    ticket: int
    request: OpRequest
    A: sp.csr_matrix
    key: PlanKey
    #: Virtual timestamp the request entered the queue.
    enqueued_ms: float

    @property
    def effective_deadline_ms(self) -> float:
        """Absolute virtual time by which composition must start; +inf
        for best-effort requests (sorts last under EDF)."""
        if self.request.deadline_ms is None:
            return math.inf
        return self.enqueued_ms + self.request.deadline_ms

    @property
    def group_key(self) -> tuple[PlanKey, bool]:
        """Coalescing key: the plan-cache key *plus* the operand kind —
        numeric and measure-only requests may share a plan but cannot
        share a launch (there is no operand to stack for the latter)."""
        return self.key, self.request.B is not None


class Batcher:
    """Coalesce queued requests that share a plan-cache key.

    Pure queueing policy — no clock of its own and no execution: the
    scheduler pushes arrivals with virtual timestamps and asks which
    groups are ready at a given ``now``.  A group is ready when it holds
    ``max_batch`` members (no point waiting: the batch is full) or when
    its oldest member has waited ``max_wait_ms``.  Ready groups come
    back earliest-deadline-first, and requests within an oversize group
    are taken in EDF order too, so a tight-deadline request is never
    stuck behind best-effort ones that merely share its matrix.
    """

    def __init__(self, max_batch: int = 8, max_wait_ms: float = 2.0):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_wait_ms < 0:
            raise ValueError(f"max_wait_ms must be >= 0, got {max_wait_ms}")
        self.max_batch = max_batch
        self.max_wait_ms = max_wait_ms
        self._groups: dict[tuple[PlanKey, bool], list[_QueuedRequest]] = {}
        self._count = 0

    def __len__(self) -> int:
        """Queued requests across all groups."""
        return self._count

    def push(self, item: _QueuedRequest) -> None:
        self._groups.setdefault(item.group_key, []).append(item)
        self._count += 1

    def _oldest_ms(self, group: list[_QueuedRequest]) -> float:
        return min(item.enqueued_ms for item in group)

    def next_ready_ms(self) -> float | None:
        """Earliest virtual time at which a (non-full) group times out;
        None when nothing is queued.  Full groups are ready *now*."""
        if not self._groups:
            return None
        return min(
            self._oldest_ms(g) + self.max_wait_ms for g in self._groups.values()
        )

    def ready(self, now_ms: float, flush: bool = False) -> list[list[_QueuedRequest]]:
        """Pop the groups that should dispatch at ``now_ms``.

        ``flush`` forces everything out regardless of age — the scheduler
        uses it once the arrival stream is exhausted, when further waiting
        can only add queueing delay (nothing new can join a group).
        """
        out = []
        for key in list(self._groups):
            group = self._groups[key]
            while len(group) >= self.max_batch or (
                group
                and (flush or self._oldest_ms(group) + self.max_wait_ms <= now_ms)
            ):
                group.sort(key=lambda q: (q.effective_deadline_ms, q.enqueued_ms))
                take, rest = group[: self.max_batch], group[self.max_batch :]
                out.append(take)
                self._count -= len(take)
                self._groups[key] = group = rest
            if not group:
                del self._groups[key]
        out.sort(
            key=lambda g: (
                min(q.effective_deadline_ms for q in g),
                self._oldest_ms(g),
            )
        )
        return out


@dataclass
class Scheduler(ServingSurface):
    """Open-loop batched scheduler over an :class:`SpMMServer`.

    Same serving protocol as the server, but :meth:`drain` runs a
    virtual-time event loop instead of serving in submission order:
    arrivals are admitted at their ``arrival_ms``, coalesced by the
    :class:`Batcher`, and dispatched batch-at-a-time onto the
    least-loaded simulated device.  All serving semantics (cache,
    admission control, retries, breakers, OOM degradation, per-request
    metrics) live in the server underneath; the scheduler adds queueing,
    batching, and backpressure on top.
    """

    server: SpMMServer
    #: Largest micro-batch (requests fused into one launch).
    max_batch: int = 8
    #: Longest virtual wait before a partial batch dispatches anyway.
    max_wait_ms: float = 2.0
    #: Queued-request bound; arrivals beyond it are shed to the degraded
    #: CSR path.  None = unbounded (no shedding).
    max_queue: int | None = None
    metrics: SchedulerMetrics = field(default_factory=SchedulerMetrics)

    #: :meth:`replay` submits the whole trace before draining: the event
    #: loop needs the whole arrival stream to batch correctly.
    REPLAY_CHUNK = 0

    def __post_init__(self) -> None:
        super().__init__()
        if self.max_queue is not None and self.max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {self.max_queue}")
        self._batcher = Batcher(self.max_batch, self.max_wait_ms)
        self._submitted: list[tuple[int, OpRequest, tuple | None]] = []
        #: Virtual time at which each server device finishes its queue.
        self._free_at_ms = [0.0] * len(self.server.devices)

    # ------------------------------------------------------------------
    def _enqueue(self, ticket: int, request: OpRequest, prepared) -> None:
        self._submitted.append((ticket, request, prepared))
        self.metrics.submitted += 1

    def poll(self, ticket: int) -> OpResponse | None:
        """Claim one completed response; None until a :meth:`drain` has
        processed the ticket (the event loop needs the whole arrival
        stream to batch correctly, so poll never runs it early)."""
        return self._completed.pop(ticket, None)

    def wait_for_speculation(self, timeout: float | None = None) -> int:
        """Settle the server's in-flight background composes (see
        :meth:`SpMMServer.wait_for_speculation`)."""
        return self.server.wait_for_speculation(timeout=timeout)

    def _graph_server(self) -> SpMMServer:
        return self.server

    # ------------------------------------------------------------------
    def _process(self) -> None:
        """The discrete-event loop (virtual milliseconds).

        Events are arrival timestamps and batch timeouts; device busy
        intervals only extend the makespan.  The loop alternates: ingest
        arrivals due at ``now`` (shedding if the queue is full), dispatch
        groups that are ready at ``now``, then jump the clock to the next
        event.  Once the arrival stream is exhausted the batcher is
        flushed — nothing new can join a group, so waiting out
        ``max_wait_ms`` would be pure added latency.
        """
        arrivals = sorted(self._submitted, key=lambda item: item[1].arrival_ms)
        self._submitted = []
        i, n = 0, len(arrivals)
        now = 0.0
        while i < n or len(self._batcher):
            while i < n and arrivals[i][1].arrival_ms <= now:
                self._admit(*arrivals[i], now)
                i += 1
            for group in self._batcher.ready(now, flush=i >= n):
                self._dispatch(group, now)
            if i < n or len(self._batcher):
                events = []
                if i < n:
                    events.append(arrivals[i][1].arrival_ms)
                timeout = self._batcher.next_ready_ms()
                if timeout is not None:
                    events.append(timeout)
                now = max(now, min(events))
        self.metrics.makespan_ms = max(
            [self.metrics.makespan_ms, *self._free_at_ms]
        )

    def _admit(self, ticket: int, request: OpRequest, prepared, now: float) -> None:
        at = max(now, request.arrival_ms)
        A, key = prepared or (None, None)
        if self.max_queue is not None and len(self._batcher) >= self.max_queue:
            # Backpressure: the queue is full.  Shedding serves the
            # request immediately on the forced-degraded path (a cache
            # hit still uses the cached plan — only a miss skips the
            # pipeline), which bounds both queue memory and the latency
            # added to everything behind it.
            self.metrics.shed += 1
            response = self.server._serve_one(
                request, force_degrade=True, shed=True, A=A, key=key
            )
            self._occupy(response, at)
            self._completed[ticket] = response
            return
        if prepared is None:
            A = self.server._canonical(request.matrix)
            key = PlanKey(fingerprint_csr(A), request.op, request.J)
        self._batcher.push(
            _QueuedRequest(
                ticket=ticket, request=request, A=A, key=key, enqueued_ms=at
            )
        )

    def _dispatch(self, group: list[_QueuedRequest], now: float) -> None:
        waits = [now - item.enqueued_ms for item in group]
        member_ids = [
            item.request.ctx.trace_id
            for item in group
            if item.request.ctx is not None
        ]
        with get_tracer().span(
            "queue_wait",
            size=len(group),
            key=str(group[0].key),
            max_wait_ms=round(max(waits), 4),
            **({"trace_ids": ",".join(member_ids)} if member_ids else {}),
        ):
            responses = self.server.serve_batch(
                [item.request for item in group],
                queue_waits_ms=waits,
                prepared=[(item.A, item.key) for item in group],
            )
        # A fused launch answers ``batch_size`` consecutive members with
        # one shared measurement; a group the server serves singly is one
        # launch per member.  Charge and count each launch once.
        i = 0
        while i < len(responses):
            size = responses[i].batch_size
            self.metrics.observe_batch(size, waits[i : i + size])
            self._occupy(responses[i], now)
            i += size
        for item, response in zip(group, responses):
            self._completed[item.ticket] = response

    def _occupy(self, response: OpResponse, start_ms: float) -> None:
        """Charge a launch's simulated cost to its device's worker queue."""
        cost_ms = response.backoff_ms
        if response.measurement is not None:
            cost_ms += response.measurement.time_ms
        device = response.device_index
        begin = max(start_ms, self._free_at_ms[device])
        self._free_at_ms[device] = begin + cost_ms

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Scheduler scoreboard plus the underlying server snapshot."""
        out = self.metrics.snapshot()
        out["server"] = self.server.snapshot()
        return out

    def report(self) -> str:
        """Plain-text report: scheduler scoreboard over the server's."""
        return "\n".join([self.metrics.report(), self.server.report()])
