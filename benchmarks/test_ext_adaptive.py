"""Extension benchmark: online adaptive format selection under drift.

The §5 selector is frozen at training time, so a mid-trace shift in the
simulated device's per-kernel cost profile (a driver regression, thermal
throttling of one kernel family) leaves it persistently wrong — every
request for an affected matrix pays the now-slow format.  The adaptive
claim: a per-fingerprint Thompson-sampling bandit
(:class:`repro.serve.FormatBandit`), fed only the per-request simulated
latencies already flowing through ``ServerMetrics``, recovers >= 90% of
*oracle* throughput (the per-request best arm, known in hindsight) on a
workload whose optimal format flips mid-trace, while the static
classifier stays below that bar — and it does so deterministically, with
bit-identical numeric results across replays and 100% availability.
"""

import copy

import numpy as np

from repro.core.selector import FormatSelector
from repro.gpu.device import SimulatedOOMError
from repro.serve import (
    ARMS,
    FormatBandit,
    FormatDriftDevice,
    PlanCache,
    PlanKey,
    SpMMServer,
    WorkloadSpec,
    fingerprint_csr,
    generate_workload,
    plan_arm,
)
from repro.serve.adaptive import build_arm_plan

#: Latency multiplier the drift applies to the CELL kernel family.
SLOWDOWN = 4.0

#: Seeded Zipf trace; the drift flips at the halfway point.  Long enough
#: that the bandit's fixed per-key detection delay (a few slow serves per
#: fingerprint right after the shift) amortizes below 10% of oracle.
DRIFT_SPEC = WorkloadSpec(
    num_requests=450,
    num_matrices=4,
    zipf_s=1.1,
    J_choices=(32,),
    max_rows=2_000,
    with_operands=False,
    seed=23,
)


def _always_cell(liteform):
    """The session model with its format selector pinned to CELL — the
    "static classifier stays wrong" half of the claim.  (A degenerate
    single-class fit makes the selector constant; the partition predictor
    is shared untouched.)"""
    lf = copy.copy(liteform)
    lf.selector = FormatSelector().fit(np.zeros((4, 7)), np.ones(4, dtype=bool))
    return lf


def _serve_with_drift(lf, requests, bandit=None):
    """Replay ``requests`` on one drift device, flipping it at halfway;
    returns (server, responses)."""
    device = FormatDriftDevice(slowdown=SLOWDOWN)
    server = SpMMServer(
        liteform=lf,
        cache=PlanCache(max_bytes=1 << 30),
        devices=[device],
        bandit=bandit,
    )
    half = len(requests) // 2
    responses = []
    for i, r in enumerate(requests):
        if i == half:
            device.drifted = True
        responses.append(server.serve(r))
    return server, responses


def _arm_times_ms(lf, A, J, drifted):
    """Hindsight per-arm latency of one (matrix, J) in one drift phase."""
    device = FormatDriftDevice(slowdown=SLOWDOWN, drifted=drifted)
    times = {}
    for arm in ARMS:
        plan = build_arm_plan(lf, A, J, arm)
        try:
            times[arm] = plan.kernel.measure(plan.fmt, J, device).time_ms
        except SimulatedOOMError:
            times[arm] = float("inf")
    return times


def _oracle_total_ms(lf, requests):
    """Sum of each request's best-arm latency, phase-aware."""
    cache = {}
    half = len(requests) // 2
    total = 0.0
    for i, r in enumerate(requests):
        drifted = i >= half
        key = (PlanKey(fingerprint_csr(r.matrix), "spmm", r.J), drifted)
        if key not in cache:
            cache[key] = min(_arm_times_ms(lf, r.matrix, r.J, drifted).values())
        total += cache[key]
    return total


def test_ext_adaptive_recovers_oracle_after_drift(liteform):
    lf = _always_cell(liteform)
    requests = generate_workload(DRIFT_SPEC)
    oracle_ms = _oracle_total_ms(lf, requests)

    static_server, static_responses = _serve_with_drift(lf, requests)
    static_ms = sum(r.measurement.time_ms for r in static_responses)

    bandit = FormatBandit(min_obs=3, explore=0.05, seed=7)
    adaptive_server, adaptive_responses = _serve_with_drift(
        lf, requests, bandit=bandit
    )
    adaptive_ms = sum(r.measurement.time_ms for r in adaptive_responses)

    static_recovery = oracle_ms / static_ms
    adaptive_recovery = oracle_ms / adaptive_ms

    # The headline: >= 90% of oracle throughput where the static
    # classifier stays wrong (strictly below the same bar).
    assert adaptive_recovery >= 0.90, (
        f"bandit recovered only {adaptive_recovery:.1%} of oracle "
        f"({adaptive_ms:.3f} ms vs oracle {oracle_ms:.3f} ms)"
    )
    assert static_recovery < 0.90, (
        f"static classifier was not wrong enough to matter "
        f"({static_recovery:.1%} of oracle)"
    )
    assert adaptive_ms < static_ms

    m = adaptive_server.metrics
    assert m.availability == 1.0
    assert all(not r.failed for r in adaptive_responses)
    assert m.bandit_observations == len(requests)
    assert m.bandit_overrides > 0
    # The drift actually forced format flips (cell -> a fixed format).
    assert m.bandit_flips > 0
    post = [plan_arm(r.plan) for r in adaptive_responses[-30:]]
    assert any(arm != "cell" for arm in post), (
        f"bandit never abandoned the drifted CELL arm: {post}"
    )
    # The static server, by construction, served CELL throughout.
    assert all(plan_arm(r.plan) == "cell" for r in static_responses)


def test_ext_adaptive_is_deterministic_and_bit_identical(liteform):
    lf = _always_cell(liteform)
    numeric_spec = WorkloadSpec(
        num_requests=120,
        num_matrices=3,
        zipf_s=1.1,
        J_choices=(32,),
        max_rows=2_000,
        with_operands=True,
        seed=29,
    )

    def run():
        requests = generate_workload(numeric_spec)
        bandit = FormatBandit(min_obs=3, explore=0.05, seed=11)
        _, responses = _serve_with_drift(lf, requests, bandit=bandit)
        return responses

    first, second = run(), run()
    assert [plan_arm(r.plan) for r in first] == [plan_arm(r.plan) for r in second]
    for a, b in zip(first, second):
        assert a.C is not None and b.C is not None
        assert np.array_equal(a.C, b.C), "replay is not bit-identical"


class _RetrainingServer(SpMMServer):
    BANDIT_RETRAIN_EVERY = 50


def test_ext_adaptive_periodic_retrain_fixes_static_model(liteform):
    lf = _always_cell(liteform)
    requests = generate_workload(DRIFT_SPEC)
    bandit = FormatBandit(min_obs=3, explore=0.05, seed=7)
    device = FormatDriftDevice(slowdown=SLOWDOWN, drifted=True)
    server = _RetrainingServer(
        liteform=lf,
        cache=PlanCache(max_bytes=1 << 30),
        devices=[device],
        bandit=bandit,
    )
    for r in requests:
        server.serve(r)
    assert server.metrics.bandit_retrains > 0
    # After retraining on drifted-trace rewards, the static selector no
    # longer answers CELL for the matrices it was wrong about.
    preds = {
        name: lf.selector.predict(r.matrix)
        for name, r in {r.name: r for r in requests}.items()
    }
    assert not all(preds.values()), (
        f"retrained selector still always answers CELL: {preds}"
    )
