"""Request serving on top of the LiteForm pipeline.

The paper's argument (Figures 8-9) is that composition is cheap enough to
amortize *online*; this package supplies the layer that does the
amortizing.  A :class:`~repro.serve.server.SpMMServer` accepts
:class:`~repro.serve.server.OpRequest` objects, keys composed plans by a
content fingerprint of the sparsity pattern (so repeated matrices hit a
byte-budgeted LRU :class:`~repro.serve.plan_cache.PlanCache` instead of
re-running the pipeline), applies deadline-driven admission control (a
request whose estimated composition overhead would blow its deadline is
served a plain CSR row-split plan immediately), and executes on a pool of
simulated devices.  Execution is resilient: transient faults are retried
with bounded exponential backoff (:class:`~repro.serve.resilience.RetryPolicy`)
across per-device circuit breakers
(:class:`~repro.serve.resilience.CircuitBreaker`), and a structural OOM
degrades the plan to CSR instead of failing the request.
:mod:`~repro.serve.workload` generates seeded Zipf-distributed request
traffic for replay — optionally timed with Poisson ``arrival_ms``
stamps — and :mod:`~repro.serve.metrics` aggregates the serving counters
and latency percentiles.

The serving protocol is async-style (``submit() / poll() / drain()``,
with ``serve(request)`` as the one-request wrapper and ``replay`` /
``replay_graphs`` for whole traces), inherited from one
:class:`~repro.serve.server.ServingSurface` by the server, by the
cluster frontend, and by :class:`~repro.serve.scheduler.Scheduler`, the
open-loop batched scheduler: a
:class:`~repro.serve.scheduler.Batcher` coalesces queued requests that
share a plan key into one fused launch (operands
stacked column-wise, results split back bit-identically), dispatches
earliest-deadline-first with queueing delay charged against deadlines,
and sheds arrivals to the degraded path when its bounded queue is full.

With ``SpMMServer(speculative=True)`` a cache miss is served the CSR
fallback immediately while the full plan composes on a background
executor and is swapped into the cache by the serving thread
(docs/COMPOSE.md).

With ``SpMMServer(bandit=FormatBandit(...))`` (CLI ``serve --adaptive``)
a per-fingerprint Thompson-sampling bandit over the CELL/CSR/BCSR format
families consumes each request's simulated latency as reward and, once a
key has enough evidence, overrides the static §5 selector — re-pinning
the cached plan when its decision flips the format (docs/ADAPTIVE.md).

Requests are op-typed (:class:`~repro.serve.server.OpRequest`,
``op ∈ {spmm, sddmm, spmv}``) and plans are cached per
:class:`~repro.serve.fingerprint.PlanKey` ``(fingerprint, op, J)``; every
response records the :class:`~repro.serve.server.PlanSource` its plan
came from.
:mod:`~repro.serve.graph` chains ops into DAG requests
(:class:`~repro.serve.graph.GraphRequest`) — a GNN layer's
SDDMM → normalize → SpMM → dense-update pipeline served end to end with
one composed geometry reused across every stage sharing the adjacency's
sparsity pattern (docs/GNN.md).

See docs/SERVING.md for cache keying, eviction, deadline, batching, and
resilience semantics.
"""

from repro.serve.adaptive import (
    ARMS,
    BANDIT_MAGIC,
    ArmStats,
    FormatBandit,
    FormatDriftDevice,
    build_arm_plan,
    plan_arm,
)
from repro.serve.cluster import (
    ClusterFrontend,
    ClusterMetrics,
    MembershipChange,
    ShardRing,
    WindowedFrequencySketch,
    remigration_fraction,
)
from repro.serve.fingerprint import (
    OP_KINDS,
    MatrixFingerprint,
    PlanKey,
    fingerprint_csr,
)
from repro.serve.graph import (
    GraphEngine,
    GraphRequest,
    GraphResponse,
    OpStage,
)
from repro.serve.metrics import LatencySeries, ServerMetrics
from repro.serve.plan_cache import CacheEntry, PlanCache
from repro.serve.resilience import CircuitBreaker, RetryPolicy
from repro.serve.scheduler import Batcher, Scheduler, SchedulerMetrics
from repro.serve.server import (
    OpRequest,
    OpResponse,
    PlanSource,
    ResponseStatus,
    ServingSurface,
    SpMMServer,
)
from repro.serve.workload import WorkloadSpec, generate_workload, zipf_weights

__all__ = [
    "ARMS",
    "BANDIT_MAGIC",
    "ArmStats",
    "FormatBandit",
    "FormatDriftDevice",
    "build_arm_plan",
    "plan_arm",
    "CircuitBreaker",
    "RetryPolicy",
    "ClusterFrontend",
    "ClusterMetrics",
    "MembershipChange",
    "ShardRing",
    "WindowedFrequencySketch",
    "remigration_fraction",
    "MatrixFingerprint",
    "fingerprint_csr",
    "PlanKey",
    "OP_KINDS",
    "GraphEngine",
    "GraphRequest",
    "GraphResponse",
    "OpStage",
    "PlanCache",
    "CacheEntry",
    "LatencySeries",
    "ServerMetrics",
    "SchedulerMetrics",
    "Batcher",
    "Scheduler",
    "ResponseStatus",
    "ServingSurface",
    "OpRequest",
    "OpResponse",
    "PlanSource",
    "SpMMServer",
    "WorkloadSpec",
    "generate_workload",
    "zipf_weights",
]
