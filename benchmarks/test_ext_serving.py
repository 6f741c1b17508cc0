"""Extension benchmark: the serving layer amortizes composition overhead.

The paper's Figures 8-9 establish that one LiteForm compose is cheap; the
serving claim is stronger — under Zipf traffic, plan caching recovers the
compose cost of every repeated request, so the *aggregate* overhead of a
cached server is a small fraction of compose-per-request LiteForm while
execution picks the exact same plans.  The deadline tier additionally
shows admission control bounding worst-case composition latency by the
CSR fallback build cost.
"""

import numpy as np
import pytest

from repro.bench import BenchTable
from repro.serve import (
    OpRequest,
    PlanCache,
    SpMMServer,
    WorkloadSpec,
    generate_workload,
)

#: >= 200 requests over >= 32 distinct matrices, Zipf(1.1), mixed J.
SERVE_SPEC = WorkloadSpec(
    num_requests=300,
    num_matrices=32,
    zipf_s=1.1,
    J_choices=(32, 64, 128),
    max_rows=3_000,
    with_operands=False,
    seed=17,
)


@pytest.fixture(scope="module")
def replayed(liteform):
    requests = generate_workload(SERVE_SPEC)
    server = SpMMServer(liteform=liteform, cache=PlanCache(max_bytes=1 << 30))
    responses = [server.serve(r) for r in requests]
    return server, requests, responses


@pytest.fixture(scope="module")
def fresh_overheads(liteform):
    """What a cacheless compose-per-request server pays for the same trace."""
    return [
        liteform.compose(r.matrix, r.J).overhead.total_s
        for r in generate_workload(SERVE_SPEC)
    ]


def test_ext_serving_amortizes_composition(benchmark, replayed, fresh_overheads):
    server, requests, responses = benchmark.pedantic(
        lambda: replayed, rounds=1, iterations=1
    )
    m = server.metrics
    fresh_total = float(np.sum(fresh_overheads))
    reduction = fresh_total / m.compose_spent_s
    half = len(responses) // 2
    steady_hits = [r.cache_hit for r in responses[half:]]
    steady_hit_rate = float(np.mean(steady_hits))

    table = BenchTable(
        "Extension: serving-layer plan caching (Zipf 1.1, 300 requests, "
        "32 matrices)",
        ["metric", "value"],
    )
    table.add_row("compose-per-request total (s)", fresh_total)
    table.add_row("cached server compose spent (s)", m.compose_spent_s)
    table.add_row("aggregate overhead reduction", reduction)
    table.add_row("overall hit rate", m.hit_rate)
    table.add_row("steady-state hit rate (2nd half)", steady_hit_rate)
    table.add_row("cache entries", len(server.cache))
    table.add_row("exec p50 (ms)", m.exec_ms.percentile(50))
    table.add_row("exec p99 (ms)", m.exec_ms.percentile(99))
    table.emit()

    # Headline: >= 5x aggregate composition-overhead reduction at a >= 90%
    # steady-state hit rate.
    assert reduction >= 5.0
    assert steady_hit_rate >= 0.9
    assert m.cache_misses == len(server.cache)  # one compose per distinct plan


def test_ext_serving_cached_execution_identical(benchmark, replayed, liteform):
    """A cache hit serves the same plan a fresh compose would pick, so the
    simulated execution time is identical — caching trades no performance."""
    server, requests, responses = benchmark.pedantic(
        lambda: replayed, rounds=1, iterations=1
    )
    seen = set()
    checked = 0
    for req, resp in zip(requests, responses):
        if resp.key in seen or checked >= 8:
            continue
        seen.add(resp.key)
        fresh_plan = liteform.compose(req.matrix, req.J)
        fresh = liteform.measure(fresh_plan, req.J)
        assert fresh_plan.use_cell == resp.plan.use_cell
        assert fresh_plan.max_widths == resp.plan.max_widths
        assert np.isclose(fresh.time_s, resp.measurement.time_s, rtol=1e-9)
        checked += 1
    assert checked >= 8


def test_ext_serving_deadline_bounded_by_fallback(benchmark, liteform):
    """Degraded requests pay fingerprint + CSR build, nothing else: the
    overshoot past any deadline is bounded by the CSR build cost."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    requests = generate_workload(
        WorkloadSpec(
            num_requests=40,
            num_matrices=12,
            max_rows=3_000,
            with_operands=False,
            seed=23,
        )
    )
    server = SpMMServer(liteform=liteform, cache=PlanCache(max_bytes=1 << 30))
    server.serve(requests[0])  # prime the overhead estimator

    tight_ms = 1e-3  # far below any compose estimate -> always degrade
    degraded = []
    for r in requests[1:]:
        resp = server.serve(
            OpRequest(matrix=r.matrix, B=None, J=r.J, deadline_ms=tight_ms)
        )
        if not resp.cache_hit:
            assert resp.admission_degraded, r.name
            degraded.append(resp)

    assert degraded
    assert server.metrics.degraded == len(degraded)
    for resp in degraded:
        # total overhead minus the measured CSR build is just fingerprint +
        # admission bookkeeping; generous wall-clock slack for CI noise.
        assert resp.compose_overhead_s - resp.plan.overhead.build_s < 0.05
        assert not resp.plan.use_cell
