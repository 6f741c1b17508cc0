"""`SpMMServer` — the request loop between traffic and the pipeline.

Per request the server (1) canonicalizes and fingerprints the matrix
into a :class:`~repro.serve.fingerprint.PlanKey` ``(fingerprint, op, J)``,
(2) acquires a plan from the first :class:`PlanSource` that applies —
the plan cache, the format bandit, a resident same-pattern plan
re-valued with the request's values, a speculative CSR fallback,
admission control's degraded CSR plan, or a full
``LiteForm.compose_csr`` — and (3) executes it on the least-loaded
device of a homogeneous pool (the same shortest-queue idea
:mod:`repro.gpu.multi` uses for shard placement, applied across requests
instead of within one).  :meth:`SpMMServer.serve_batch` does the same
for a group of requests sharing one plan key, with one acquisition and
one fused launch.

The serving protocol is async-style and shared by every surface through
:class:`ServingSurface`: ``submit`` enqueues a request and returns a
ticket, ``poll`` claims one completed response, ``drain`` completes
everything pending, ``serve`` does all three for one request, and
``replay`` / ``replay_graphs`` run whole traces.
:class:`repro.serve.scheduler.Scheduler` (open-loop queueing and
fingerprint-coalesced micro-batching) and
:class:`repro.serve.cluster.ClusterFrontend` (a sharded fleet) speak the
same protocol on top of this server.

Deadlines bound the *composition overhead* (time until the kernel can be
launched), not the simulated kernel time — execution cost is intrinsic
to the workload, while composition overhead is the part the paper (and
admission control) can do something about.  Admission control estimates
it from an EWMA rate per non-zero learned from this server's own
``OverheadBreakdown`` history.  Queueing delay (reported by the
scheduler as ``queue_wait_ms``) also counts against the deadline: a
request that waited 3 ms of a 5 ms deadline has only 2 ms of composition
budget left.
"""

from __future__ import annotations

import dataclasses
import time
from collections import OrderedDict, deque
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import wait as futures_wait
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
import scipy.sparse as sp

from repro.core.pipeline import ComposePlan, LiteForm, OverheadBreakdown
from repro.formats.base import VALUE_DTYPE, as_csr
from repro.formats.csr import CSRFormat
from repro.gpu.device import DeviceLostError, SimulatedDevice, SimulatedOOMError
from repro.gpu.stats import Measurement
from repro.kernels.cell_spmm import CELLSpMM
from repro.kernels.registry import kernel_for_op
from repro.kernels.sddmm import CSRSDDMM
from repro.obs import TraceContext, get_tracer
from repro.serve.adaptive import FormatBandit, build_arm_plan, plan_arm
from repro.serve.fingerprint import PlanKey, fingerprint_csr
from repro.serve.metrics import ServerMetrics
from repro.serve.plan_cache import CacheEntry, PlanCache
from repro.serve.resilience import CircuitBreaker, RetryPolicy

#: Plan keys whose bandit arm plans the server memoizes (bounded FIFO).
_MEMO_LIMIT = 512

#: Smoothing factor of the per-nnz composition-cost estimate.
OVERHEAD_EWMA_ALPHA = 0.3

#: Consecutive failures before a device's circuit breaker opens.
BREAKER_THRESHOLD = 3

#: Seconds an open breaker waits before admitting a probe request.
BREAKER_COOLDOWN_S = 1.0


class ResponseStatus(str, Enum):
    """Structured outcome of one served request.

    * ``OK`` — full-pipeline plan, executed successfully;
    * ``DEGRADED`` — served, but on the CSR fallback plan (admission
      control, backpressure shedding, or structural-OOM degradation);
    * ``FAILED`` — every recovery path exhausted, no result.

    ``response.failed`` is a read-only view derived from this enum.
    """

    OK = "ok"
    DEGRADED = "degraded"
    FAILED = "failed"


class PlanSource(str, Enum):
    """Where a request's plan came from, in the order
    :meth:`SpMMServer._acquire_plan` tries the sources (the table in
    docs/SERVING.md says when each is taken)."""

    #: The cached plan, or the bandit's arm re-pinned over it (a flip).
    HIT = "hit"
    #: Miss: the bandit's chosen arm, built directly.
    BANDIT = "bandit"
    #: Miss: a resident plan of the same sparsity pattern, re-valued with
    #: the request's values.
    REVALUE = "revalue"
    #: Miss: the CSR fallback while the full plan composes in background.
    SPECULATIVE = "speculative"
    #: Miss: the CSR fallback chosen by admission control or shedding.
    DEGRADED = "degraded"
    #: Miss: the full LiteForm pipeline.
    COMPOSE = "compose"


@dataclass(frozen=True)
class PlanDecision:
    """Outcome of plan acquisition: the op-bound plan, its source, and the
    wall-clock overhead paid from fingerprinting until the plan was ready."""

    plan: ComposePlan
    source: PlanSource
    overhead_s: float


@dataclass
class OpRequest:
    """One unit of traffic: an op over ``matrix`` with dense operand(s).

    ``op`` selects the sparse primitive: ``"spmm"`` multiplies
    ``matrix @ B`` with ``J`` columns; ``"spmv"`` is its ``J = 1`` corner
    (``B`` is a ``(K, 1)`` column); ``"sddmm"`` samples ``U @ V.T`` onto
    the matrix's pattern (pass ``operands=(U, V)``, with ``J`` carrying
    the shared feature width ``K``).

    ``B`` may be ``None`` for measure-only traffic (replay benchmarks that
    only need timing).  ``deadline_ms`` bounds the composition overhead;
    ``None`` means best-effort (always take the full pipeline).
    ``arrival_ms`` is the request's position on the workload's virtual
    timeline (0.0 for closed-loop traces); the open-loop scheduler
    replays arrivals at these timestamps.
    """

    matrix: sp.spmatrix
    B: np.ndarray | None
    J: int
    deadline_ms: float | None = None
    name: str = ""
    arrival_ms: float = 0.0
    #: Distributed trace context minted at the ingress point (e.g. the
    #: cluster frontend); None = the server mints one itself when traced.
    ctx: TraceContext | None = None
    #: Op kind; see :data:`repro.serve.fingerprint.OP_KINDS`.
    op: str = "spmm"
    #: SDDMM dense pair ``(U, V)``; None for spmm/spmv.
    operands: tuple[np.ndarray, np.ndarray] | None = None


@dataclass
class OpResponse:
    """Outcome of one served request.

    ``C`` is dense for spmm/spmv and a CSR matrix for sddmm.
    """

    C: np.ndarray | sp.csr_matrix | None
    measurement: Measurement | None
    plan: ComposePlan | None
    key: PlanKey
    #: Where :attr:`plan` came from; see :class:`PlanSource`.
    plan_source: PlanSource
    #: Structured outcome; see :class:`ResponseStatus`.
    status: ResponseStatus
    deadline_missed: bool
    device_index: int
    #: Composition overhead actually paid for this request (wall clock):
    #: fingerprint+lookup on a hit, full compose on a miss, CSR build on
    #: the degraded path.
    compose_overhead_s: float
    #: ``queue_wait_ms`` + ``compose_overhead_s`` + retry backoff +
    #: simulated execution time.
    latency_ms: float
    #: Total executions tried (1 = no retries needed).
    attempts: int = 1
    #: At least one attempt failed but the request ultimately succeeded.
    recovered: bool = False
    #: Retry backoff accounted into :attr:`latency_ms`.
    backoff_ms: float = 0.0
    #: The plan was rebuilt as CSR after a structural OOM.
    degraded_oom: bool = False
    #: Requests coalesced into the launch that served this one (1 = no
    #: batching).  The shared :attr:`measurement` times the whole batch.
    batch_size: int = 1
    #: Virtual milliseconds spent queued before dispatch (scheduler only).
    queue_wait_ms: float = 0.0
    #: The scheduler's bounded queue was full; this request was shed to
    #: the degraded CSR path instead of queueing.
    shed: bool = False
    #: Trace id the request was served under (None when untraced).
    trace_id: str | None = None
    #: Op kind the request carried (spmm/sddmm/spmv).
    op: str = "spmm"

    @property
    def ok(self) -> bool:
        return self.status is ResponseStatus.OK

    @property
    def failed(self) -> bool:
        return self.status is ResponseStatus.FAILED

    @property
    def cache_hit(self) -> bool:
        return self.plan_source is PlanSource.HIT

    @property
    def admission_degraded(self) -> bool:
        """Admission control (or backpressure shedding) served the CSR
        fallback plan instead of running the pipeline."""
        return self.plan_source is PlanSource.DEGRADED

    @property
    def speculative(self) -> bool:
        """Served the immediate CSR plan of a speculative-recompose window."""
        return self.plan_source is PlanSource.SPECULATIVE

    @property
    def plan_reused(self) -> bool:
        """A miss served by re-valuing a resident same-pattern plan."""
        return self.plan_source is PlanSource.REVALUE


class ServingSurface:
    """The serving protocol of :class:`SpMMServer`, the
    :class:`~repro.serve.scheduler.Scheduler` and the
    :class:`~repro.serve.cluster.ClusterFrontend`: one ticket book.

    :meth:`submit` hands out monotone tickets; :meth:`poll` claims one
    completed response and :meth:`drain` every unclaimed one, in
    submission order, so each response is delivered exactly once.  A
    surface supplies ``_enqueue(ticket, request, prepared)``, which queues
    one submitted request, and ``_process()``, which serves everything
    queued and files each response in ``_completed`` under its ticket.
    docs/SERVING.md tabulates where the three surfaces differ.
    """

    #: Requests :meth:`replay` submits between drains (0 = the whole
    #: trace before the first drain).
    REPLAY_CHUNK = 1

    def __init__(self) -> None:
        self._next_ticket = 0
        self._completed: dict[int, OpResponse] = {}

    def submit(
        self, request: OpRequest, *, prepared: tuple[sp.csr_matrix, PlanKey] | None = None
    ) -> int:
        """Enqueue a request; returns a ticket for :meth:`poll`.

        ``prepared`` is the request's canonical matrix and plan key, as
        in :meth:`SpMMServer.serve_batch`, for callers that already
        fingerprinted it (the cluster frontend's ingress): the surface
        then does not hash the matrix again.
        """
        ticket = self._next_ticket
        self._next_ticket += 1
        self._enqueue(ticket, request, prepared)
        return ticket

    def poll(self, ticket: int) -> OpResponse | None:
        """Claim one completed response (serving anything queued first);
        None if the ticket is unknown or already claimed."""
        self._process()
        return self._completed.pop(ticket, None)

    def drain(self) -> list[OpResponse]:
        """Serve everything queued; returns all unclaimed responses in
        submission order."""
        self._process()
        return [self._completed.pop(t) for t in sorted(self._completed)]

    def serve(self, request: OpRequest) -> OpResponse:
        """Serve one request now (and anything queued before it)."""
        ticket = self.submit(request)
        self._process()
        return self._completed.pop(ticket)

    def replay(self, requests: list[OpRequest]):
        """Serve a whole trace under one ``replay`` span and return this
        surface's scoreboard; the responses are not kept.

        In-flight speculative composes settle once, after the last
        drain: settling per drain would serialize the composes that
        speculation exists to overlap.
        """
        chunk = self.REPLAY_CHUNK
        with get_tracer().span("replay", requests=len(requests)):
            for i, request in enumerate(requests, 1):
                self.submit(request)
                if chunk and i % chunk == 0:
                    self.drain()
            self.drain()
            self.wait_for_speculation()
        return self.metrics

    def serve_graph(self, graph):
        """Serve one :class:`repro.serve.graph.GraphRequest` end to end;
        returns its :class:`~repro.serve.graph.GraphResponse`."""
        from repro.serve.graph import GraphEngine

        return GraphEngine(self._graph_server()).run(graph)

    def replay_graphs(self, graphs) -> list:
        """Serve graph requests in arrival order; returns their responses
        in that order.  On one server the graphs replay in stage-index
        lockstep, and same-wave SpMM stages sharing a plan key fuse into
        one launch (:meth:`~repro.serve.graph.GraphEngine.run_wave`)."""
        from repro.serve.graph import GraphEngine

        ordered = sorted(graphs, key=lambda g: g.arrival_ms)
        server = self._graph_server()
        if server is None:
            return [self.serve_graph(g) for g in ordered]
        return GraphEngine(server).run_wave(ordered)

    def _graph_server(self) -> SpMMServer | None:
        """The server graph requests run on: graphs carry their own stage
        order, so they bypass any arrival queue.  None serves graph by
        graph through :meth:`serve_graph`."""
        return None


@dataclass
class _DeviceSlot:
    device: SimulatedDevice
    breaker: CircuitBreaker
    busy_s: float = 0.0
    #: Requests successfully served by this device.
    requests: int = 0
    #: Failed execution attempts on this device (transient OOMs, losses).
    failures: int = 0
    #: The device raised :class:`DeviceLostError` at least once.
    lost: bool = False


@dataclass
class SpMMServer(ServingSurface):
    """Serve SpMM requests with plan caching and admission control."""

    liteform: LiteForm
    cache: PlanCache = field(default_factory=PlanCache)
    #: The device pool; ``None`` serves on one :class:`SimulatedDevice`.
    devices: list[SimulatedDevice] | None = None
    metrics: ServerMetrics = field(default_factory=ServerMetrics)
    #: Bounded-retry policy for transient execution faults.
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: Rebuild the plan as CSR (smaller footprint) on a structural OOM
    #: instead of failing the request.
    degrade_on_oom: bool = True
    #: Speculative recompose: a cache miss serves the CSR fallback plan
    #: immediately while a background thread composes the full plan, which
    #: is swapped into the cache (on the serving thread) when ready.
    speculative: bool = False
    #: Online adaptive format selection (docs/ADAPTIVE.md): a
    #: :class:`~repro.serve.adaptive.FormatBandit` consulted on every
    #: request once armed with enough per-key reward; a decision that
    #: differs from the cached plan's arm re-pins the cache entry.
    #: ``None`` serves statically.
    bandit: FormatBandit | None = None

    #: Refit the static format selector on serving-derived samples every
    #: N bandit observations (0 = never retrain online).
    BANDIT_RETRAIN_EVERY = 0

    def __post_init__(self) -> None:
        super().__init__()
        if self.devices is None:
            self.devices = [SimulatedDevice()]
        if not self.devices:
            raise ValueError("device pool must not be empty")
        self._slots = [
            _DeviceSlot(
                device=d,
                breaker=CircuitBreaker(
                    failure_threshold=BREAKER_THRESHOLD,
                    cooldown_s=BREAKER_COOLDOWN_S,
                ),
            )
            for d in self.devices
        ]
        #: EWMA of compose seconds per non-zero, None until the first compose.
        self._compose_s_per_nnz: float | None = None
        self._pending: deque[tuple[int, OpRequest, tuple | None]] = deque()
        #: key -> (background compose future, matrix nnz, canonical CSR).
        self._inflight: dict[PlanKey, tuple[Future, int, sp.csr_matrix]] = {}
        #: Keys whose cache entry holds a structurally-OOM-degraded CSR
        #: plan: background swaps must never overwrite it.
        self._oom_pinned: set[PlanKey] = set()
        self._spec_pool = (
            ThreadPoolExecutor(max_workers=1, thread_name_prefix="speculate")
            if self.speculative
            else None
        )
        #: key -> arm -> op-bound plan, memoized so a bandit flip back to
        #: a previously built arm costs a dict lookup, not a rebuild.  A
        #: bounded FIFO of :data:`_MEMO_LIMIT` keys: these plans sit outside
        #: the cache's byte budget.
        self._bandit_plans: "OrderedDict[PlanKey, dict[str, ComposePlan]]" = OrderedDict()

    # ------------------------------------------------------------------
    def estimate_compose_s(self, nnz: int) -> float | None:
        """Predicted full-pipeline composition overhead for an ``nnz``-sized
        matrix, from this server's own compose history (None = no history
        yet; admission control then admits optimistically)."""
        if self._compose_s_per_nnz is None:
            return None
        return self._compose_s_per_nnz * max(1, nnz)

    def _observe_compose(self, nnz: int, overhead_s: float) -> None:
        rate = overhead_s / max(1, nnz)
        if self._compose_s_per_nnz is None:
            self._compose_s_per_nnz = rate
        else:
            a = OVERHEAD_EWMA_ALPHA
            self._compose_s_per_nnz = a * rate + (1 - a) * self._compose_s_per_nnz

    def adopt(self, entry: CacheEntry, donor: SpMMServer) -> bool:
        """Take over ``entry`` from ``donor`` (a cluster handoff).

        The plan enters this server's cache unless it already holds the
        key, and a key ``donor`` pinned after a structural OOM stays
        pinned here, so this server never re-composes the plan that
        cannot fit.  Returns whether the plan entered the cache.
        """
        if entry.key in donor._oom_pinned:
            self._oom_pinned.add(entry.key)
        return self.cache.peek(entry.key) is None and self.cache.put(
            entry.key, entry.plan, compose_overhead_s=entry.compose_overhead_s
        )

    @staticmethod
    def _canonical(matrix: sp.spmatrix | np.ndarray) -> sp.csr_matrix:
        """Canonicalize once per request; already-canonical float32 CSR
        (everything the generators and workload produce) passes through.

        The fast path requires ``has_canonical_format`` (sorted indices,
        no duplicates): :func:`fingerprint_csr` and the kernels assume
        canonical CSR, and letting a user-supplied unsorted/duplicated
        matrix through would give the same logical matrix two cache keys.
        """
        if (
            sp.issparse(matrix)
            and matrix.format == "csr"
            and matrix.dtype == VALUE_DTYPE
            and matrix.has_canonical_format
        ):
            return matrix
        return as_csr(matrix)

    def _fallback_plan(self, A: sp.csr_matrix, op: str) -> ComposePlan:
        """The CSR row-split plan (the bandit's ``csr`` arm) bound to ``op``:
        the smallest-footprint format, built in one pass."""
        return self._bind_op(build_arm_plan(self.liteform, A, 1, "csr"), A, op)

    def _bind_op(self, plan: ComposePlan, A: sp.csr_matrix, op: str) -> ComposePlan:
        """Bind the kernel that executes ``op`` onto a composed plan.

        The pipeline composes formats with an SpMM kernel attached; the
        same built format serves SDDMM and SpMV through a different
        kernel (:func:`repro.kernels.registry.kernel_for_op`).  When no
        kernel of the op speaks the plan's format (SDDMM over a fixed
        block/ELL format), the format is rebuilt as CSR — cheap relative
        to composition, charged to the plan's build time.  SpMV over a
        non-CSR format keeps the plan's SpMM kernel: a ``(K, 1)`` operand
        is exact through any SpMM execution path.
        """
        if op == "spmm":
            return plan
        kernel = kernel_for_op(plan.fmt, op)
        if kernel is not None:
            return dataclasses.replace(plan, kernel=kernel)
        if op == "sddmm":
            csr = build_arm_plan(self.liteform, A, 1, "csr")
            overhead = dataclasses.replace(
                plan.overhead, build_s=plan.overhead.build_s + csr.overhead.build_s
            )
            return dataclasses.replace(
                plan,
                use_cell=False,
                fmt=csr.fmt,
                kernel=CSRSDDMM(),
                overhead=overhead,
                incremental=None,
            )
        return plan

    def _revalue(self, plan: ComposePlan, A: sp.csr_matrix, J: int) -> ComposePlan:
        """Restart a resident plan of ``A``'s sparsity pattern from its
        SpMM kernel with ``A``'s values (the caller binds the op).

        The cheap "re-value" path: selection, partitioning and the
        bucket-width search are skipped.  A CELL plan gathers ``A``'s
        values into its shared structure (:meth:`CELLFormat.revalue`),
        whose kernel memo the equal ``CELLSpMM()`` hits; a fixed-format
        plan rebuilds its arm's format in one pass.
        """
        if not plan.use_cell:
            return build_arm_plan(self.liteform, A, J, plan_arm(plan))
        tb = time.perf_counter()
        fmt = plan.fmt.revalue(A)
        overhead = OverheadBreakdown(0.0, 0.0, 0.0, time.perf_counter() - tb)
        return dataclasses.replace(plan, fmt=fmt, kernel=CELLSpMM(), overhead=overhead)

    def _pick_device(self, exclude: set[int] | frozenset[int] = frozenset()) -> int:
        """Least-busy device whose breaker admits traffic.

        ``exclude`` holds devices that already failed this request (retries
        prefer somewhere else).  Degrades gracefully: if every breaker is
        open (or everything is excluded) the least-busy device overall is
        used — serving on a suspect device beats not serving at all.
        """
        allowed = [i for i, s in enumerate(self._slots) if s.breaker.allow()]
        candidates = [i for i in allowed if i not in exclude] or allowed
        if not candidates:
            candidates = list(range(len(self._slots)))
        return min(candidates, key=lambda i: self._slots[i].busy_s)

    # ------------------------------------------------------------------
    def _execute(
        self,
        A: sp.csr_matrix,
        plan: ComposePlan,
        B: np.ndarray | tuple | None,
        J: int,
        op: str = "spmm",
    ) -> dict:
        """Run ``plan`` against operand ``B`` (an ndarray, or the SDDMM
        ``(U, V)`` pair; measure-only at width ``J`` when None) with
        bounded retry, breaker updates, and OOM degradation; returns the
        execution outcome as a dict.

        Recovery rules, per failed attempt:

        * transient OOM (``not err.is_structural``) or device loss —
          record on the device's breaker, retry on the least-busy other
          device with exponential backoff, up to ``retry.max_attempts``
          total executions;
        * structural OOM — retrying cannot help; if :attr:`degrade_on_oom`
          and the plan is not already plain CSR, rebuild it as CSR (the
          smallest-footprint format) and execute that, otherwise fail.
        """
        m = self.metrics
        tracer = get_tracer()
        attempts = 0
        backoff_ms = 0.0
        degraded_oom = False
        had_failure = False
        failed_on: set[int] = set()
        C: np.ndarray | None = None
        measurement: Measurement | None = None
        slot_index = self._pick_device()
        with tracer.span("execute", device=slot_index) as ex_span:
            while True:
                attempts += 1
                slot = self._slots[slot_index]
                try:
                    with tracer.span("attempt", device=slot_index, attempt=attempts):
                        if B is not None:
                            C, measurement = plan.kernel.run(
                                plan.fmt, B, slot.device
                            )
                        else:
                            measurement = plan.kernel.measure(
                                plan.fmt, J, slot.device
                            )
                    slot.breaker.record_success()
                    slot.requests += 1
                    slot.busy_s += measurement.time_s
                    failed = False
                    break
                except SimulatedOOMError as err:
                    if err.is_structural:
                        # No device of the homogeneous pool can fit this
                        # working set; the only recovery is a smaller format.
                        if self.degrade_on_oom and not isinstance(
                            plan.fmt, CSRFormat
                        ):
                            with tracer.span("oom_degrade", nnz=A.nnz):
                                plan = self._fallback_plan(A, op)
                            degraded_oom = True
                            m.oom_degraded += 1
                            continue  # fresh plan, not a retry
                        slot.failures += 1
                        failed = True
                        break
                    had_failure = True
                    slot.failures += 1
                    if slot.breaker.record_failure():
                        m.breaker_open += 1
                except DeviceLostError:
                    had_failure = True
                    slot.failures += 1
                    slot.lost = True
                    m.device_lost += 1
                    if slot.breaker.record_failure(fatal=True):
                        m.breaker_open += 1
                if attempts >= self.retry.max_attempts:
                    failed = True
                    break
                m.retries += 1
                backoff_ms += self.retry.backoff_ms(attempts)
                failed_on.add(slot_index)
                slot_index = self._pick_device(exclude=failed_on)
            recovered = had_failure and not failed
            ex_span.set(
                attempts=attempts,
                failed=failed,
                recovered=recovered,
                degraded_oom=degraded_oom,
                backoff_ms=round(backoff_ms, 4),
            )
        return {
            "plan": plan,
            "C": C,
            "measurement": measurement,
            "slot_index": slot_index,
            "failed": failed,
            "attempts": attempts,
            "recovered": recovered,
            "backoff_ms": backoff_ms,
            "degraded_oom": degraded_oom,
        }

    # -- speculative recompose -----------------------------------------
    def _speculate(self, A: sp.csr_matrix, key: PlanKey) -> None:
        """Kick off a background compose for ``key`` (idempotent while one
        is already in flight)."""
        if key in self._inflight or self._spec_pool is None:
            return
        future = self._spec_pool.submit(self.liteform.compose_csr, A, key.J)
        self._inflight[key] = (future, int(A.nnz), A)

    def _apply_ready_swaps(self) -> int:
        """Swap completed background composes into the plan cache.

        Runs on the serving thread only — the :class:`PlanCache` is not
        thread-safe, and applying swaps here (instead of from the worker
        thread) serializes them against the structural-OOM degrade pin:
        a key whose entry was pinned to its CSR fallback after a
        structural OOM never gets the doomed CELL plan swapped back in
        (counted as ``speculative_skipped``).  Returns swaps applied.
        """
        if not self._inflight:
            return 0
        m = self.metrics
        tracer = get_tracer()
        applied = 0
        for key in [k for k, (f, *_rest) in self._inflight.items() if f.done()]:
            future, nnz, A = self._inflight.pop(key)
            try:
                plan = future.result()
            except Exception:
                m.speculative_skipped += 1
                continue
            if key in self._oom_pinned:
                with tracer.span("speculative_swap", key=str(key), skipped=True):
                    m.speculative_skipped += 1
                continue
            plan = self._bind_op(plan, A, key.op)
            with tracer.span("speculative_swap", key=str(key), nnz=nnz):
                self.cache.put(key, plan, compose_overhead_s=plan.overhead.total_s)
            self._observe_compose(nnz, plan.overhead.total_s)
            m.compose_spent_s += plan.overhead.total_s
            m.speculative_swaps += 1
            applied += 1
        return applied

    def wait_for_speculation(self, timeout: float | None = None) -> int:
        """Block until in-flight background composes finish (bounded by
        ``timeout`` seconds) and apply their swaps; returns swaps applied.

        The serving path itself never blocks — it applies whatever is
        ready at each request.  Callers that need a settled cache (replay
        tails, tests, shutdown) call this explicitly.
        """
        futures = [f for f, *_rest in self._inflight.values()]
        if futures:
            futures_wait(futures, timeout=timeout)
        return self._apply_ready_swaps()

    # -- adaptive format selection (docs/ADAPTIVE.md) --------------------
    def _sync_bandit_metrics(self) -> None:
        """Mirror the bandit's lifetime counters onto the scoreboard
        (``bandit_flips`` is server-side and incremented directly)."""
        b, m = self.bandit, self.metrics
        m.bandit_observations = b.observations
        m.bandit_overrides = b.overrides
        m.bandit_explorations = b.explorations
        m.bandit_retrains = b.retrains

    def _arm_plan(self, A: sp.csr_matrix, key: PlanKey, arm: str) -> ComposePlan:
        """The op-bound plan of one bandit arm for ``key``, built once."""
        memo = self._bandit_plans
        per_key = memo.get(key)
        if per_key is None:
            per_key = memo[key] = {}
            while len(memo) > _MEMO_LIMIT:
                memo.popitem(last=False)
        plan = per_key.get(arm)
        if plan is None:
            with get_tracer().span("bandit_build", arm=arm, nnz=A.nnz):
                plan = self._bind_op(
                    build_arm_plan(self.liteform, A, key.J, arm), A, key.op
                )
            self.metrics.compose_spent_s += plan.overhead.total_s
            per_key[arm] = plan
        return plan

    def _bandit_observe(
        self, A: sp.csr_matrix, key: PlanKey, plan: ComposePlan, exec_ms: float
    ) -> None:
        """Feed one successful request's simulated latency back as reward
        for the arm that actually executed."""
        b = self.bandit
        if b is None or key in self._oom_pinned:
            return
        b.observe(key, plan_arm(plan), exec_ms, A=A)
        if self.BANDIT_RETRAIN_EVERY and b.observations % self.BANDIT_RETRAIN_EVERY == 0:
            with get_tracer().span("bandit_retrain", observations=b.observations):
                b.retrain(self.liteform)
        self._sync_bandit_metrics()

    # ------------------------------------------------------------------
    def _acquire_plan(
        self,
        A: sp.csr_matrix,
        key: PlanKey,
        t0: float,
        deadline_ms: float | None,
        force_degrade: bool = False,
    ) -> PlanDecision:
        """Acquire the plan for ``key``, trying each :class:`PlanSource` in
        order; shared by the single-request and batched paths.

        ``deadline_ms`` is the request's (or batch's tightest) deadline
        with queueing delay already subtracted; ``force_degrade``
        (backpressure shedding) sends a miss straight to admission, which
        degrades it.  The bandit, re-value and speculative sources apply
        only to misses that are not forced to degrade; the bandit skips
        OOM-pinned keys, and a speculative miss of a pinned key restores
        the pin instead of composing in the background.  Every returned
        plan carries the kernel of ``key.op``.
        """
        m = self.metrics
        tracer = get_tracer()
        op = key.op

        def decided(plan: ComposePlan, source: PlanSource, cache: bool = True):
            if cache:
                self.cache.put(key, plan, compose_overhead_s=plan.overhead.total_s)
            return PlanDecision(plan, source, time.perf_counter() - t0)

        if self._inflight:
            self._apply_ready_swaps()
        entry = self.cache.get(key)
        pinned = key in self._oom_pinned
        arm = None
        if self.bandit is not None and not pinned and (entry is not None or not force_degrade):
            # Once armed with enough reward for this key, the bandit picks
            # the format: on a hit a different arm re-pins the entry (a
            # "flip"); on a miss (e.g. after an eviction) its arm is built
            # instead of running the static pipeline.
            arm = self.bandit.select(key)
            self._sync_bandit_metrics()
        if entry is not None:
            m.cache_hits += 1
            m.compose_saved_s += entry.compose_overhead_s
            if arm is None or arm == plan_arm(entry.plan):
                return decided(entry.plan, PlanSource.HIT, cache=False)
            plan = self._arm_plan(A, key, arm)
            m.bandit_flips += 1
            with tracer.span("bandit_repin", arm=arm, key=str(key)):
                return decided(plan, PlanSource.HIT)
        m.cache_misses += 1
        if arm is not None:
            return decided(self._arm_plan(A, key, arm), PlanSource.BANDIT)
        same = None if force_degrade else self.cache.newest_of_pattern(key.fp.pattern)
        if same is not None:
            with tracer.span("revalue", op=op, nnz=A.nnz):
                plan = self._bind_op(self._revalue(same.plan, A, key.J), A, op)
            m.plan_reuses += 1
            m.revalue_s += plan.overhead.total_s
            return decided(plan, PlanSource.REVALUE)
        if self.speculative and not force_degrade:
            with tracer.span("speculative_build", nnz=A.nnz, pinned=pinned):
                plan = self._fallback_plan(A, op)
            if not pinned:
                self._speculate(A, key)
            # A structural OOM already proved the full plan cannot fit a
            # pinned key's working set: restore the pin instead of paying
            # a background compose that would be discarded.
            return decided(plan, PlanSource.SPECULATIVE, cache=pinned)
        with tracer.span("admission") as adm_span:
            estimate = self.estimate_compose_s(A.nnz)
            degraded = force_degrade or (
                deadline_ms is not None
                and estimate is not None
                and estimate * 1e3 > deadline_ms
            )
            adm_span.set(
                admitted=not degraded,
                forced=force_degrade,
                estimate_ms=None if estimate is None else estimate * 1e3,
            )
        if degraded:
            with tracer.span("degraded_build"):
                plan = self._fallback_plan(A, op)
            # Not cached: a later best-effort request for the same matrix
            # should get the full pipeline, not a pinned fallback.
            return decided(plan, PlanSource.DEGRADED, cache=False)
        with tracer.span("compose", nnz=A.nnz, op=op):
            plan = self.liteform.compose_csr(A, key.J)
        self._observe_compose(A.nnz, plan.overhead.total_s)
        m.compose_spent_s += plan.overhead.total_s
        return decided(self._bind_op(plan, A, op), PlanSource.COMPOSE)

    def _complete(
        self,
        requests: list[OpRequest],
        waits: list[float],
        trace_ids: list[str | None],
        A: sp.csr_matrix,
        key: PlanKey,
        decision: PlanDecision,
        span,
        shed: bool = False,
    ) -> list[OpResponse]:
        """Execute ``decision.plan`` once for every request sharing ``key``
        and account each one; shared by the single-request and batched
        paths.

        More than one request runs as a fused launch: the dense operands
        are stacked column-wise into one ``(K, n*J)`` operand and the
        result is split back per request.  Output column ``j`` depends
        only on operand column ``j``, so each slice is bit-identical to an
        individually served result.
        """
        m = self.metrics
        n, J, source = len(requests), key.J, decision.source
        operand = requests[0].operands if key.op == "sddmm" else requests[0].B
        if n > 1 and operand is not None:
            operand = np.hstack([r.B for r in requests])
        if source is PlanSource.DEGRADED:
            m.degraded += n
        elif source is PlanSource.SPECULATIVE:
            m.speculative_misses += n
        outcome = self._execute(A, decision.plan, operand, n * J, op=key.op)
        plan, failed = outcome["plan"], outcome["failed"]
        if outcome["degraded_oom"] and not failed:
            # Pin the degraded CSR plan under this key: later requests for
            # the same (matrix, op, J) must not re-pay the structural OOM
            # and the rebuild on every hit.  The pin also blocks any
            # in-flight speculative swap for this key.
            self.cache.put(key, plan, compose_overhead_s=plan.overhead.total_s)
            self._oom_pinned.add(key)
        measurement = outcome["measurement"]
        exec_ms = measurement.time_ms if measurement is not None else 0.0
        overhead_ms = decision.overhead_s * 1e3
        backoff_ms = outcome["backoff_ms"]
        if failed:
            status = ResponseStatus.FAILED
        elif outcome["degraded_oom"] or source in (PlanSource.DEGRADED, PlanSource.SPECULATIVE):
            status = ResponseStatus.DEGRADED
        else:
            status = ResponseStatus.OK
        if not failed:
            # One reward per launch (a fused launch's per-request share):
            # the bandit's unit of evidence is a launch, not a member.
            self._bandit_observe(A, key, plan, exec_ms / n)
        C = outcome["C"]
        responses = []
        for i, (request, wait, trace_id) in enumerate(zip(requests, waits, trace_ids)):
            deadline_missed = (
                request.deadline_ms is not None
                and overhead_ms + wait > request.deadline_ms
            )
            if deadline_missed:
                m.deadline_misses += 1
            latency_ms = wait + overhead_ms + backoff_ms + exec_ms
            if failed:
                # Failed requests never enter the success latency series —
                # a 0 ms "latency" would drag p50/p95 down (they are
                # tracked separately, with the retry cost they paid).
                m.failed += 1
                m.observe_failed_latency(latency_ms)
            else:
                if outcome["recovered"]:
                    m.recovered += 1
                m.observe_latency(exec_ms, latency_ms)
            m.attribution.record(
                trace_id,
                {
                    "queue_wait": wait,
                    "compose": overhead_ms,
                    "launch": exec_ms,
                    "retry_backoff": backoff_ms,
                },
                total_ms=latency_ms,
            )
            C_i = C
            if n > 1 and C is not None:
                C_i = np.ascontiguousarray(C[:, i * J : (i + 1) * J])
            responses.append(
                OpResponse(
                    C=C_i,
                    measurement=measurement,
                    plan=plan,
                    key=key,
                    plan_source=source,
                    status=status,
                    deadline_missed=deadline_missed,
                    device_index=outcome["slot_index"],
                    compose_overhead_s=decision.overhead_s,
                    latency_ms=latency_ms,
                    attempts=outcome["attempts"],
                    recovered=outcome["recovered"],
                    backoff_ms=backoff_ms,
                    degraded_oom=outcome["degraded_oom"],
                    batch_size=n,
                    queue_wait_ms=wait,
                    shed=shed,
                    trace_id=trace_id,
                    op=request.op,
                )
            )
        span.set(
            plan_source=source.value,
            cache_hit=source is PlanSource.HIT,
            status=status.value,
            deadline_missed=any(r.deadline_missed for r in responses),
            sim_exec_ms=exec_ms,
        )
        return responses

    # ------------------------------------------------------------------
    def _serve_one(
        self,
        request: OpRequest,
        *,
        queue_wait_ms: float = 0.0,
        force_degrade: bool = False,
        shed: bool = False,
        A: sp.csr_matrix | None = None,
        key: PlanKey | None = None,
    ) -> OpResponse:
        """Serve one request; every path updates :attr:`metrics`.

        With a tracer installed (:func:`repro.obs.get_tracer`), each
        request emits a ``request`` span with children ``cache_lookup``,
        ``admission`` / ``degraded_build`` / ``compose`` (the compose span
        nests the pipeline's per-stage spans), and ``execute`` (which
        nests the simulated ``kernel_launch`` spans).
        """
        self.metrics.requests += 1
        tracer = get_tracer()
        ctx = request.ctx
        if ctx is None and tracer.enabled:
            # Standalone server = its own ingress point: mint here so the
            # whole request subtree (compose, kernel launches) is linked.
            ctx = TraceContext.mint("req")
        with tracer.span(
            "request",
            ctx=ctx,
            J=request.J,
            op=request.op,
            matrix=request.name or "anonymous",
        ) as req_span:
            t0 = time.perf_counter()
            with tracer.span("cache_lookup"):
                if A is None:
                    A = self._canonical(request.matrix)
                if key is None:
                    key = PlanKey(fingerprint_csr(A), request.op, request.J)
            deadline_ms = (
                None
                if request.deadline_ms is None
                else request.deadline_ms - queue_wait_ms
            )
            decision = self._acquire_plan(A, key, t0, deadline_ms, force_degrade)
            trace_id = ctx.trace_id if ctx is not None else None
            (response,) = self._complete(
                [request], [queue_wait_ms], [trace_id], A, key, decision, req_span, shed=shed
            )
        return response

    # -- serving protocol ------------------------------------------------
    #: Bound here, not inherited, so profilers that wrap this class's own
    #: attributes find the request entry point.
    serve = ServingSurface.serve

    def _enqueue(self, ticket: int, request: OpRequest, prepared) -> None:
        # Lazy-synchronous: the work happens at the next poll or drain.
        self._pending.append((ticket, request, prepared))

    def _process(self) -> None:
        while self._pending:
            ticket, request, prepared = self._pending.popleft()
            A, key = prepared or (None, None)
            self._completed[ticket] = self._serve_one(request, A=A, key=key)

    def _graph_server(self) -> SpMMServer:
        return self

    # -- coalesced micro-batches ---------------------------------------
    def serve_batch(
        self,
        requests: list[OpRequest],
        *,
        queue_waits_ms: list[float] | None = None,
        prepared: list[tuple[sp.csr_matrix, PlanKey]] | None = None,
    ) -> list[OpResponse]:
        """Serve requests sharing one plan key as a single fused launch.

        One plan acquisition covers the whole group and one launch
        executes it (see :meth:`_complete`).  All requests must agree on
        the plan key and on operand kind (all numeric or all
        measure-only); a mixed group raises :exc:`ValueError` — the
        :class:`~repro.serve.scheduler.Batcher` never forms one.

        ``queue_waits_ms`` (scheduler-provided) is the per-request
        virtual queueing delay; the group's admission decision uses the
        *tightest* effective deadline (deadline minus wait) among its
        members.  ``prepared`` lets the scheduler pass pre-canonicalized
        ``(A, key)`` pairs so fingerprints are not recomputed at dispatch.
        """
        n = len(requests)
        if n == 0:
            return []
        waits = list(queue_waits_ms) if queue_waits_ms is not None else [0.0] * n
        if len(waits) != n:
            raise ValueError(f"queue_waits_ms has {len(waits)} entries for {n} requests")
        if prepared is None:
            prepared = []
            for r in requests:
                A = self._canonical(r.matrix)
                prepared.append((A, PlanKey(fingerprint_csr(A), r.op, r.J)))
        keys = {key for _, key in prepared}
        if len(keys) != 1:
            raise ValueError(
                f"serve_batch requires one (fingerprint, J) group per op, "
                f"got {len(keys)} distinct plan keys: {sorted(map(str, keys))}"
            )
        numeric = [r.B is not None for r in requests]
        if any(numeric) and not all(numeric):
            raise ValueError(
                "serve_batch cannot mix numeric and measure-only requests"
            )
        A, key = prepared[0]
        if n == 1 or key.op != "spmm":
            # SDDMM operand pairs and SpMV columns have no column-stacked
            # fused-launch equivalence; group members still share the one
            # plan lookup through the cache, just not a launch.
            return [
                self._serve_one(r, queue_wait_ms=w, A=a, key=k)
                for r, w, (a, k) in zip(requests, waits, prepared)
            ]

        self.metrics.requests += n
        tracer = get_tracer()
        trace_ids = [r.ctx.trace_id if r.ctx is not None else None for r in requests]
        member_ids = [t for t in trace_ids if t is not None]
        with tracer.span("batch", size=n, J=key.J, key=str(key)) as batch_span:
            if member_ids:
                # A fused launch serves many trace ids at once; list them
                # on the batch span so any member's trace finds it.
                batch_span.set(trace_ids=",".join(member_ids))
            t0 = time.perf_counter()
            deadlines = [
                r.deadline_ms - w
                for r, w in zip(requests, waits)
                if r.deadline_ms is not None
            ]
            deadline_ms = min(deadlines) if deadlines else None
            decision = self._acquire_plan(A, key, t0, deadline_ms)
            return self._complete(requests, waits, trace_ids, A, key, decision, batch_span)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Merged metrics + cache + device-pool view (JSON-friendly)."""
        out = self.metrics.snapshot()
        out["cache"] = self.cache.stats()
        out["devices"] = [
            {
                "index": i,
                "busy_s": s.busy_s,
                "requests": s.requests,
                "failures": s.failures,
                "lost": s.lost,
                "breaker": s.breaker.state,
                "breaker_trips": s.breaker.trips,
            }
            for i, s in enumerate(self._slots)
        ]
        return out

    def report(self) -> str:
        """Plain-text report: metrics, cache, and device utilization."""
        c = self.cache.stats()
        lines = [
            self.metrics.report(),
            f"cache entries       {c['entries']} "
            f"({c['bytes'] / 2**20:.1f}/{c['max_bytes'] / 2**20:.1f} MiB, "
            f"{c['evictions']} evictions, {c['rejected']} rejected)",
        ]
        for i, s in enumerate(self._slots):
            health = f", breaker {s.breaker.state}" if s.breaker.state != "closed" else ""
            lost = ", LOST" if s.lost else ""
            lines.append(
                f"device[{i}]           {s.requests} requests, "
                f"{s.failures} failed attempts, "
                f"{s.busy_s * 1e3:.3f} ms simulated busy{health}{lost}"
            )
        return "\n".join(lines)
