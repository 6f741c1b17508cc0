"""Batched scheduler: coalescing, EDF, backpressure, batch numerics."""

import numpy as np
import pytest

from repro.core import LiteForm, generate_training_data
from repro.gpu import FaultPolicy, FaultyDevice
from repro.matrices import SuiteSparseLikeCollection, power_law_graph
from repro.serve import (
    Batcher,
    OpRequest,
    PlanCache,
    ResponseStatus,
    RetryPolicy,
    Scheduler,
    SpMMServer,
    WorkloadSpec,
    generate_workload,
)
from repro.serve.fingerprint import PlanKey, fingerprint_csr
from repro.serve.scheduler import _QueuedRequest


@pytest.fixture(scope="module")
def liteform():
    coll = SuiteSparseLikeCollection(size=6, max_rows=2500, seed=11)
    return LiteForm().fit(generate_training_data(coll, J_values=(32,)))


@pytest.fixture()
def server(liteform):
    return SpMMServer(liteform=liteform, cache=PlanCache(max_bytes=1 << 30))


def _request(seed=1, n=400, J=32, deadline_ms=None, arrival_ms=0.0, with_B=True):
    A = power_law_graph(n, 6, seed=seed)
    B = None
    if with_B:
        B = np.random.default_rng(seed).standard_normal(
            (A.shape[1], J)
        ).astype(np.float32)
    return OpRequest(
        matrix=A, B=B, J=J, deadline_ms=deadline_ms, arrival_ms=arrival_ms
    )


def _queued(request, ticket=0, enqueued_ms=0.0):
    A = SpMMServer._canonical(request.matrix)
    return _QueuedRequest(
        ticket=ticket,
        request=request,
        A=A,
        key=PlanKey(fingerprint_csr(A), "spmm", request.J),
        enqueued_ms=enqueued_ms,
    )


class TestBatcher:
    def test_coalesces_same_plan_key(self):
        b = Batcher(max_batch=8, max_wait_ms=1.0)
        for t in range(3):
            b.push(_queued(_request(seed=1), ticket=t))
        groups = b.ready(now_ms=5.0)
        assert len(groups) == 1 and len(groups[0]) == 3
        assert len(b) == 0

    def test_same_fingerprint_mixed_J_does_not_coalesce(self):
        b = Batcher(max_batch=8, max_wait_ms=1.0)
        b.push(_queued(_request(seed=1, J=32), ticket=0))
        b.push(_queued(_request(seed=1, J=64), ticket=1))
        groups = b.ready(now_ms=5.0)
        assert len(groups) == 2
        assert all(len(g) == 1 for g in groups)

    def test_mixed_operand_kinds_do_not_coalesce(self):
        # Same (fingerprint, J), but one request has no B: the plan may
        # be shared, the launch cannot.
        b = Batcher(max_batch=8, max_wait_ms=1.0)
        b.push(_queued(_request(seed=1, with_B=True), ticket=0))
        b.push(_queued(_request(seed=1, with_B=False), ticket=1))
        assert len(b.ready(now_ms=5.0)) == 2

    def test_full_group_ready_before_timeout(self):
        b = Batcher(max_batch=2, max_wait_ms=1e9)
        b.push(_queued(_request(seed=1), ticket=0))
        assert b.ready(now_ms=0.0) == []
        b.push(_queued(_request(seed=1), ticket=1))
        groups = b.ready(now_ms=0.0)
        assert len(groups) == 1 and len(groups[0]) == 2

    def test_partial_group_waits_until_timeout(self):
        b = Batcher(max_batch=8, max_wait_ms=2.0)
        b.push(_queued(_request(seed=1), enqueued_ms=1.0))
        assert b.ready(now_ms=2.0) == []
        assert b.next_ready_ms() == 3.0
        assert len(b.ready(now_ms=3.0)) == 1

    def test_flush_ignores_age(self):
        b = Batcher(max_batch=8, max_wait_ms=1e9)
        b.push(_queued(_request(seed=1)))
        assert len(b.ready(now_ms=0.0, flush=True)) == 1

    def test_edf_orders_ready_groups(self):
        b = Batcher(max_batch=8, max_wait_ms=0.0)
        b.push(_queued(_request(seed=1, deadline_ms=None), ticket=0))
        b.push(_queued(_request(seed=2, deadline_ms=5.0), ticket=1))
        b.push(_queued(_request(seed=3, deadline_ms=1.0), ticket=2))
        groups = b.ready(now_ms=10.0)
        assert [g[0].ticket for g in groups] == [2, 1, 0]

    def test_oversize_group_split_in_edf_order(self):
        b = Batcher(max_batch=2, max_wait_ms=0.0)
        deadlines = [None, 3.0, 1.0]
        for t, d in enumerate(deadlines):
            b.push(_queued(_request(seed=1, deadline_ms=d), ticket=t))
        groups = b.ready(now_ms=1.0)
        # First batch takes the two tightest deadlines.
        assert sorted(q.ticket for q in groups[0]) == [1, 2]
        assert [q.ticket for q in groups[1]] == [0]

    def test_validation(self):
        with pytest.raises(ValueError):
            Batcher(max_batch=0)
        with pytest.raises(ValueError):
            Batcher(max_wait_ms=-1.0)


class TestServeBatch:
    def test_batched_equals_individual_bitwise(self, server, liteform):
        requests = []
        rng = np.random.default_rng(0)
        A = power_law_graph(500, 6, seed=3)
        for _ in range(4):
            B = rng.standard_normal((A.shape[1], 32)).astype(np.float32)
            requests.append(OpRequest(matrix=A, B=B, J=32))
        sequential = SpMMServer(liteform=liteform)
        expected = [sequential.serve(r).C for r in requests]
        responses = server.serve_batch(requests)
        assert all(
            np.array_equal(r.C, e) for r, e in zip(responses, expected)
        )
        assert all(r.batch_size == 4 for r in responses)
        # One lookup for the whole group: one miss, no hits.
        assert server.metrics.cache_misses == 1
        assert server.metrics.cache_hits == 0
        assert server.metrics.requests == 4

    def test_rejects_mixed_plan_keys(self, server):
        with pytest.raises(ValueError, match="one .fingerprint, J. group"):
            server.serve_batch([_request(seed=1), _request(seed=2)])

    def test_rejects_mixed_operand_kinds(self, server):
        with pytest.raises(ValueError, match="mix numeric and measure-only"):
            server.serve_batch(
                [_request(seed=1, with_B=True), _request(seed=1, with_B=False)]
            )

    def test_singleton_batch_is_plain_serve(self, server):
        [resp] = server.serve_batch([_request(seed=1)])
        assert resp.batch_size == 1 and resp.status is ResponseStatus.OK

    def test_queue_wait_counts_against_deadline(self, server):
        # Warm the overhead estimator so admission has something to act on.
        server.serve(_request(seed=1))
        estimate_ms = server.estimate_compose_s(
            server._canonical(_request(seed=2).matrix).nnz
        ) * 1e3
        tight = _request(seed=2, deadline_ms=estimate_ms * 2)
        # Without queueing delay the deadline admits the compose...
        probe = SpMMServer(liteform=server.liteform)
        probe._compose_s_per_nnz = server._compose_s_per_nnz
        assert not probe.serve(tight).admission_degraded
        # ...but a large queue wait eats the budget and degrades it.
        [resp] = server.serve_batch(
            [tight], queue_waits_ms=[estimate_ms * 1.5]
        )
        assert resp.admission_degraded
        assert resp.status is ResponseStatus.DEGRADED
        assert resp.queue_wait_ms == pytest.approx(estimate_ms * 1.5)


class TestScheduler:
    def _workload(self, n=40, seed=3, rate=20_000.0):
        return generate_workload(WorkloadSpec(
            num_requests=n, num_matrices=5, zipf_s=1.3, J_choices=(32,),
            max_rows=2000, seed=seed, arrival_rate_rps=rate,
        ))

    def test_drain_matches_sequential_bitwise(self, liteform):
        requests = self._workload()
        sequential = SpMMServer(liteform=liteform)
        expected = [sequential.serve(r).C for r in requests]
        sched = Scheduler(
            server=SpMMServer(liteform=liteform), max_batch=8, max_wait_ms=2.0
        )
        for r in requests:
            sched.submit(r)
        out = sched.drain()
        assert len(out) == len(requests)
        assert all(np.array_equal(r.C, e) for r, e in zip(out, expected))
        m = sched.metrics
        assert m.dispatched == len(requests)
        assert m.batches < len(requests)  # something actually coalesced
        assert m.coalesce_rate > 0.5
        assert m.makespan_ms > 0

    def test_fewer_lookups_than_sequential(self, liteform):
        requests = self._workload()
        sched = Scheduler(
            server=SpMMServer(liteform=liteform), max_batch=8, max_wait_ms=2.0
        )
        sched.replay(requests)
        lookups = (
            sched.server.metrics.cache_hits + sched.server.metrics.cache_misses
        )
        assert lookups == sched.metrics.batches
        assert lookups < len(requests)

    def test_submit_poll_drain_surface(self, liteform):
        sched = Scheduler(server=SpMMServer(liteform=liteform))
        tickets = [sched.submit(_request(seed=1)), sched.submit(_request(seed=2))]
        assert sched.poll(tickets[0]) is None  # nothing ran yet
        out = sched.drain()
        assert len(out) == 2
        assert sched.poll(tickets[0]) is None  # drained responses are claimed
        t3 = sched.submit(_request(seed=3))
        sched.drain()
        assert sched.poll(t3) is None

    def test_poll_claims_exactly_once(self, liteform):
        sched = Scheduler(server=SpMMServer(liteform=liteform))
        ticket = sched.submit(_request(seed=1))
        sched._process()
        assert sched.poll(ticket) is not None
        assert sched.poll(ticket) is None

    def test_queue_wait_recorded(self, liteform):
        requests = self._workload(rate=5_000.0)
        sched = Scheduler(
            server=SpMMServer(liteform=liteform), max_batch=8, max_wait_ms=3.0
        )
        m = sched.replay(requests)
        assert len(m.queue_wait_ms) == m.dispatched
        assert m.queue_wait_ms.max <= 3.0 + 1e-9
        assert "queue_wait_ms" in m.snapshot()

    def test_backpressure_sheds_to_degraded_path(self, liteform):
        requests = self._workload(n=60, rate=50_000.0)
        sched = Scheduler(
            server=SpMMServer(liteform=liteform),
            max_batch=4,
            max_wait_ms=1e6,  # nothing dispatches on timeout
            max_queue=8,
        )
        for r in requests:
            sched.submit(r)
        out = sched.drain()
        m = sched.metrics
        assert m.shed > 0
        assert m.shed + m.dispatched == len(requests)
        shed = [r for r in out if r.shed]
        assert len(shed) == m.shed
        # Shed requests are still answered (degraded on a miss, cached
        # plan on a hit), never dropped.
        assert all(r.status is not ResponseStatus.FAILED for r in shed)
        assert all(r.C is not None for r in shed)

    def test_drain_with_inflight_device_failures(self, liteform):
        requests = self._workload(n=30)
        pool = [
            FaultyDevice(faults=FaultPolicy(transient_oom_rate=0.4, seed=7)),
            FaultyDevice(faults=FaultPolicy(seed=8)),
        ]
        server = SpMMServer(
            liteform=liteform,
            devices=pool,
            retry=RetryPolicy(max_attempts=4),
        )
        sched = Scheduler(server=server, max_batch=8, max_wait_ms=2.0)
        for r in requests:
            sched.submit(r)
        out = sched.drain()
        assert len(out) == len(requests)
        assert server.metrics.retries > 0
        assert all(r.status is not ResponseStatus.FAILED for r in out)
        assert all(r.C is not None for r in out)
        recovered = [r for r in out if r.recovered]
        assert recovered and all(r.attempts > 1 for r in recovered)

    def test_untimed_trace_batches_at_time_zero(self, liteform):
        requests = self._workload(rate=None)
        assert all(r.arrival_ms == 0.0 for r in requests)
        sched = Scheduler(
            server=SpMMServer(liteform=liteform), max_batch=8, max_wait_ms=2.0
        )
        m = sched.replay(requests)
        assert m.dispatched == len(requests)
        assert m.queue_wait_ms.max == 0.0

    def test_validation(self, liteform):
        with pytest.raises(ValueError):
            Scheduler(server=SpMMServer(liteform=liteform), max_queue=0)


class TestArrivalWorkload:
    def test_arrivals_default_zero(self):
        reqs = generate_workload(WorkloadSpec(
            num_requests=10, num_matrices=3, max_rows=2000,
            with_operands=False,
        ))
        assert all(r.arrival_ms == 0.0 for r in reqs)

    def test_poisson_arrivals_sorted_and_seeded(self):
        spec = WorkloadSpec(
            num_requests=50, num_matrices=3, max_rows=2000,
            with_operands=False, arrival_rate_rps=1000.0, seed=4,
        )
        a = [r.arrival_ms for r in generate_workload(spec)]
        b = [r.arrival_ms for r in generate_workload(spec)]
        assert a == b
        assert all(x <= y for x, y in zip(a, a[1:]))
        assert a[0] > 0.0
        # Mean inter-arrival gap tracks the requested rate (1 ms here).
        gaps = np.diff([0.0, *a])
        assert 0.5 < gaps.mean() < 2.0

    def test_arrivals_do_not_perturb_trace(self):
        base = WorkloadSpec(
            num_requests=40, num_matrices=4, max_rows=2000, seed=9,
        )
        timed = WorkloadSpec(
            num_requests=40, num_matrices=4, max_rows=2000, seed=9,
            arrival_rate_rps=500.0,
        )
        for r1, r2 in zip(generate_workload(base), generate_workload(timed)):
            assert r1.name == r2.name and r1.J == r2.J
            assert np.array_equal(r1.B, r2.B)

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadSpec(arrival_rate_rps=0.0)
