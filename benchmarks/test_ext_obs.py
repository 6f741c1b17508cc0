"""Extension benchmark: cluster observability under chaos.

Three claims, each on seeded deterministic traffic:

* **cross-lane tracing** — killing devices and a shard mid-replay, a
  rerouted request's spans are linked by a single trace id across two
  shards' lanes of the merged Perfetto trace (the causal path survives
  the failure);
* **alert leads breach** — the fast-burn ``page`` fires during the fault
  storm (on attempt-level SLI) while request-level cluster availability
  never drops below its 99% target — burn-rate alerting pages *before*
  the user-visible objective is lost;
* **telemetry is nearly free** — per-request tracing + SLO + attribution
  cost, bounded by a microbenchmark of the span hot path times the
  measured span density, stays within 2% of the untraced request
  latency.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.gpu.faults import FaultPolicy, FaultyDevice
from repro.obs import (
    SLOEngine,
    Tracer,
    default_policies,
    default_slos,
    set_tracer,
    trace_ids_by_lane,
)
from repro.serve import ClusterFrontend, RetryPolicy, SpMMServer
from repro.serve.workload import WorkloadSpec, generate_workload

#: Virtual-ms scale of the burn-rate windows (replays finish in ~hundreds
#: of virtual ms, so the SRE hour-scale windows compress to this).
SLO_SCALE_MS = 200.0
CHAOS_SEED = 3
#: Uniform per-launch probability that a device dies permanently.  High
#: enough that some shard loses devices mid-replay (attempt failures →
#: reroutes → burn), low enough that replication absorbs every loss.
DEATH_RATE = 0.01


def _workload(n, seed):
    spec = WorkloadSpec(
        num_requests=n,
        num_matrices=8,
        J_choices=(32,),
        max_rows=2000,
        with_operands=False,
        seed=seed,
    )
    return generate_workload(spec)


def _chaos_factory(shard_index, device_index):
    return FaultyDevice(
        faults=FaultPolicy(
            death_rate=DEATH_RATE,
            seed=CHAOS_SEED + 1000 + shard_index * 100 + device_index,
        )
    )


@pytest.fixture(scope="module")
def chaos_run(liteform):
    """One traced chaos replay shared by the tracing and SLO tests."""
    slo = SLOEngine(
        specs=default_slos(), policies=default_policies(SLO_SCALE_MS)
    )
    frontend = ClusterFrontend(
        liteform,
        num_shards=4,
        make_shard=lambda index: SpMMServer(
            liteform=liteform,
            devices=[_chaos_factory(index, d) for d in range(2)],
            retry=RetryPolicy(max_attempts=2),
        ),
        replication=2,
        seed=CHAOS_SEED,
        slo=slo,
    )
    tracer = Tracer()
    previous = set_tracer(tracer)
    try:
        frontend.replay(_workload(240, CHAOS_SEED), kill_shard_at_ms=60.0)
    finally:
        set_tracer(previous)
    return frontend, slo


def test_ext_obs_trace_links_rerouted_requests(benchmark, chaos_run):
    """A request failed on one shard and served by another leaves spans
    in both lanes under one trace id in the merged trace."""
    frontend, _ = benchmark.pedantic(
        lambda: chaos_run, rounds=1, iterations=1
    )
    assert frontend.metrics.rerouted > 0
    ids = trace_ids_by_lane(frontend.lanes())
    assert set(ids) >= {"frontend", "shard-0", "shard-1", "shard-2", "shard-3"}
    shard_lanes = [v for k, v in ids.items() if k.startswith("shard")]
    crossed = set()
    for i, a in enumerate(shard_lanes):
        for b in shard_lanes[i + 1:]:
            crossed |= a & b
    assert crossed, "no trace id appears on two shard lanes"
    benchmark.extra_info["cross_lane_trace_ids"] = len(crossed)

    trace = frontend.merged_trace()
    pids = {e["pid"] for e in trace["traceEvents"]}
    assert len(pids) >= 5  # frontend + 4 shards
    # Every exported span of a crossed request carries its trace id.
    example = next(iter(crossed))
    tagged = [
        e for e in trace["traceEvents"]
        if e.get("args", {}).get("trace_id") == example
    ]
    assert len({e["pid"] for e in tagged}) >= 2


def test_ext_obs_alert_leads_availability_breach(benchmark, chaos_run):
    """The fast-burn page fires on attempt-level SLI during the storm,
    while request-level availability finishes at 100%."""
    frontend, slo = benchmark.pedantic(
        lambda: chaos_run, rounds=1, iterations=1
    )
    pages = [a for a in slo.alerts if a.severity == "page"]
    assert pages, f"no page fired: {slo.alerts}"
    # Request-level availability never breached its target...
    target = next(s.target for s in slo.specs if s.name == "availability")
    assert frontend.metrics.availability >= target
    # ...because reroutes absorbed the shard-level failures the SLI saw.
    assert all(0.0 < a.cumulative_sli < 1.0 for a in pages)
    assert frontend.metrics.failed == 0
    benchmark.extra_info["page_fired_at_ms"] = pages[0].fired_at_ms
    benchmark.extra_info["sli_at_fire"] = pages[0].cumulative_sli


SPAN_OVERHEAD_BUDGET = 0.02  # tracing + SLO + attribution vs. untraced


def test_ext_obs_overhead_within_budget(benchmark, liteform):
    """Per-request telemetry cost (span hot path x measured span density
    + SLO/attribution accounting) stays within 2% of request latency.

    Bounded via a span microbenchmark rather than two noisy end-to-end
    walls: replay jitter on shared runners (~10%) dwarfs the real
    overhead, which this isolates deterministically.
    """
    requests = _workload(96, seed=5)

    # Untraced per-request wall time (median of repeats).
    def replay_plain():
        frontend = ClusterFrontend(liteform, num_shards=2, seed=9)
        frontend.replay(requests)
        return frontend

    replay_plain()  # warm compose caches
    walls = []
    for _ in range(5):
        t0 = time.perf_counter()
        replay_plain()
        walls.append(time.perf_counter() - t0)
    per_request_s = float(np.median(walls)) / len(requests)

    # Span density of the fully-observed replay.
    frontend = ClusterFrontend(
        liteform, num_shards=2, seed=9, slo=SLOEngine(
            specs=default_slos(), policies=default_policies(SLO_SCALE_MS)
        )
    )
    tracer = Tracer()
    previous = set_tracer(tracer)
    try:
        frontend.replay(requests)
    finally:
        set_tracer(previous)
    spans = sum(len(lane.spans) for lane in frontend.lanes().values())
    spans_per_request = spans / len(requests)

    # Span hot-path cost, measured in isolation.
    bench_tracer = Tracer()
    n = 20_000
    t0 = time.perf_counter()
    for _ in range(n):
        with bench_tracer.span("x", key="v"):
            pass
    span_cost_s = (time.perf_counter() - t0) / n

    overhead = (span_cost_s * spans_per_request) / per_request_s
    benchmark.extra_info["spans_per_request"] = spans_per_request
    benchmark.extra_info["span_cost_us"] = span_cost_s * 1e6
    benchmark.extra_info["overhead_fraction"] = overhead
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert overhead <= SPAN_OVERHEAD_BUDGET, (
        f"telemetry overhead {overhead:.2%} exceeds "
        f"{SPAN_OVERHEAD_BUDGET:.0%}: {spans_per_request:.1f} spans/request "
        f"x {span_cost_s * 1e6:.1f} us vs {per_request_s * 1e3:.2f} ms/request"
    )
