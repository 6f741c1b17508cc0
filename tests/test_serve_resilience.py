"""Server recovery: retries, circuit breaker, OOM degradation, accounting."""

from dataclasses import dataclass
from functools import partial

import numpy as np
import pytest

import repro.serve.server as server_module
from repro.core import LiteForm, generate_training_data
from repro.formats.csr import CSRFormat
from repro.gpu import FaultPolicy, FaultyDevice, SimulatedDevice, SimulatedOOMError
from repro.kernels import spmm_reference
from repro.matrices import SuiteSparseLikeCollection, power_law_graph
from repro.serve import CircuitBreaker, OpRequest, PlanCache, RetryPolicy, SpMMServer
from repro.serve.resilience import CLOSED, HALF_OPEN, OPEN


@pytest.fixture(scope="module")
def liteform():
    coll = SuiteSparseLikeCollection(size=6, max_rows=2500, seed=11)
    return LiteForm().fit(generate_training_data(coll, J_values=(32,)))


def _request(seed=1, n=400, J=32, with_B=False):
    A = power_law_graph(n, 6, seed=seed)
    B = None
    if with_B:
        B = np.random.default_rng(seed).standard_normal(
            (A.shape[1], J)
        ).astype(np.float32)
    return OpRequest(matrix=A, B=B, J=J)


def _faulty_pool(rates, seed=5, **kwargs):
    return [
        FaultyDevice(faults=FaultPolicy(seed=seed + i, **{**kwargs, **rate}))
        for i, rate in enumerate(rates)
    ]


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        p = RetryPolicy()
        assert [p.backoff_ms(n) for n in range(1, 8)] == [
            0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 20.0  # capped
        ]

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy().backoff_ms(0)


class TestCircuitBreaker:
    def test_trips_after_threshold(self):
        b = CircuitBreaker(failure_threshold=3, cooldown_s=10.0, clock=lambda: 0.0)
        assert not b.record_failure() and b.state == CLOSED
        assert not b.record_failure() and b.state == CLOSED
        assert b.record_failure()  # third consecutive failure trips
        assert b.state == OPEN and b.trips == 1
        assert not b.allow()

    def test_fatal_failure_trips_immediately(self):
        b = CircuitBreaker(failure_threshold=3)
        assert b.record_failure(fatal=True)
        assert b.state == OPEN

    def test_half_open_probe_recovers(self):
        now = [0.0]
        b = CircuitBreaker(failure_threshold=1, cooldown_s=5.0, clock=lambda: now[0])
        b.record_failure()
        assert not b.allow()  # cooldown not elapsed
        now[0] = 6.0
        assert b.allow() and b.state == HALF_OPEN
        b.record_success()
        assert b.state == CLOSED and b.allow()

    def test_half_open_failure_reopens(self):
        now = [0.0]
        b = CircuitBreaker(failure_threshold=1, cooldown_s=5.0, clock=lambda: now[0])
        b.record_failure()
        now[0] = 6.0
        assert b.allow() and b.state == HALF_OPEN
        assert b.record_failure()  # probe failed
        assert b.state == OPEN and b.trips == 2
        assert not b.allow()  # new cooldown from the probe failure

    def test_success_resets_failure_streak(self):
        b = CircuitBreaker(failure_threshold=2)
        b.record_failure()
        b.record_success()
        assert not b.record_failure()  # streak restarted
        assert b.state == CLOSED


class TestTransientRecovery:
    def test_retries_recover_injected_faults(self, liteform):
        server = SpMMServer(
            liteform=liteform,
            cache=PlanCache(max_bytes=1 << 30),
            devices=_faulty_pool([{"transient_oom_rate": 0.25}] * 2),
            retry=RetryPolicy(max_attempts=4),
        )
        req = _request(seed=21)
        for _ in range(60):
            server.serve(req)
        m = server.metrics
        assert m.retries > 0, "fault rate should have forced retries"
        assert m.recovered > 0
        assert m.availability >= 0.98
        # every failed attempt is visible per-device
        assert sum(s["failures"] for s in server.snapshot()["devices"]) >= m.retries

    def test_recovered_response_flags_and_numerics(self, liteform):
        server = SpMMServer(
            liteform=liteform,
            cache=PlanCache(max_bytes=1 << 30),
            devices=_faulty_pool([{"transient_oom_rate": 1.0}, {}]),
            retry=RetryPolicy(max_attempts=2),
        )
        req = _request(seed=22, with_B=True)
        resp = server.serve(req)
        assert not resp.failed and resp.recovered
        assert resp.attempts == 2 and resp.backoff_ms > 0
        assert resp.device_index == 1  # retried away from the faulty device
        np.testing.assert_allclose(
            resp.C, spmm_reference(req.matrix, req.B), rtol=1e-4, atol=1e-4
        )

    def test_latency_includes_backoff(self, liteform):
        server = SpMMServer(
            liteform=liteform,
            cache=PlanCache(max_bytes=1 << 30),
            devices=_faulty_pool([{"transient_oom_rate": 1.0}, {}]),
            retry=RetryPolicy(max_attempts=2),
        )
        resp = server.serve(_request(seed=23))
        assert resp.backoff_ms == 0.5
        assert resp.latency_ms == pytest.approx(
            resp.compose_overhead_s * 1e3 + resp.backoff_ms + resp.measurement.time_ms
        )


class TestFailureAccounting:
    """Regression: failed requests must not pollute the success series."""

    def _always_failing_server(self, liteform):
        return SpMMServer(
            liteform=liteform,
            cache=PlanCache(max_bytes=1 << 30),
            devices=_faulty_pool([{"transient_oom_rate": 1.0}]),
            retry=RetryPolicy(max_attempts=2),
        )

    def test_failed_requests_skip_success_series(self, liteform):
        server = self._always_failing_server(liteform)
        ok = server.serve(_request(seed=24))  # fails: both attempts OOM
        assert ok.failed
        m = server.metrics
        assert m.failed == 1
        assert len(m.exec_ms) == 0 and len(m.total_ms) == 0
        assert len(m.failed_ms) == 1
        assert m.failed_ms.max > 0  # overhead + backoff was accounted

    def test_failed_requests_not_counted_as_served_work(self, liteform):
        server = self._always_failing_server(liteform)
        server.serve(_request(seed=25))
        dev = server.snapshot()["devices"][0]
        assert dev["requests"] == 0  # not bumped as served work
        assert dev["failures"] == 2  # both attempts recorded per-device

    def test_mixed_traffic_keeps_percentiles_clean(self, liteform):
        server = SpMMServer(
            liteform=liteform,
            cache=PlanCache(max_bytes=1 << 30),
            devices=_faulty_pool([{"transient_oom_rate": 0.5}], seed=9),
            retry=RetryPolicy(max_attempts=1),
        )
        req = _request(seed=26)
        for _ in range(40):
            server.serve(req)
        m = server.metrics
        assert 0 < m.failed < 40
        assert len(m.exec_ms) == 40 - m.failed
        assert len(m.failed_ms) == m.failed
        # all served requests executed, so the success p50 cannot be zero
        assert m.exec_ms.percentile(50) > 0


class TestCircuitBreakerIntegration:
    def test_dead_device_is_ejected_and_traffic_continues(self, liteform, monkeypatch):
        monkeypatch.setattr(server_module, "BREAKER_COOLDOWN_S", 60.0)
        server = SpMMServer(
            liteform=liteform,
            cache=PlanCache(max_bytes=1 << 30),
            devices=_faulty_pool([{"death_rate": 1.0}, {}]),
            retry=RetryPolicy(max_attempts=3),
        )
        req = _request(seed=27)
        for _ in range(10):
            server.serve(req)
        m = server.metrics
        assert m.failed == 0 and m.device_lost == 1 and m.breaker_open == 1
        devices = server.snapshot()["devices"]
        assert devices[0]["lost"] and devices[0]["breaker"] == "open"
        assert devices[0]["requests"] == 0 and devices[0]["failures"] == 1
        assert devices[1]["requests"] == 10

    def test_all_devices_down_still_answers(self, liteform, monkeypatch):
        monkeypatch.setattr(server_module, "BREAKER_COOLDOWN_S", 60.0)
        server = SpMMServer(
            liteform=liteform,
            cache=PlanCache(max_bytes=1 << 30),
            devices=_faulty_pool([{"death_rate": 1.0}]),
            retry=RetryPolicy(max_attempts=2),
        )
        for seed in (28, 29):
            resp = server.serve(_request(seed=seed))
            assert resp.failed and resp.C is None
        assert server.metrics.failed == 2
        assert server.metrics.availability == 0.0


@dataclass
class _StructuralOnceDevice(SimulatedDevice):
    """Raises one structural OOM, then behaves normally."""

    tripped: bool = False

    def measure(self, stats):
        if not self.tripped:
            self.tripped = True
            raise SimulatedOOMError(2 * self.spec.dram_bytes, self.spec.dram_bytes)
        return super().measure(stats)


class TestOOMDegradation:
    def _cell_server(self, liteform, monkeypatch, **kwargs):
        # force the CELL path so there is a bigger-footprint plan to degrade
        monkeypatch.setattr(
            liteform,
            "compose_csr",
            partial(LiteForm.compose_csr, liteform, force_cell=True),
        )
        return SpMMServer(
            liteform=liteform, cache=PlanCache(max_bytes=1 << 30), **kwargs
        )

    def test_structural_oom_degrades_to_csr(self, liteform, monkeypatch):
        server = self._cell_server(
            liteform, monkeypatch, devices=[_StructuralOnceDevice()]
        )
        req = _request(seed=30, with_B=True)
        resp = server.serve(req)
        assert not resp.failed and resp.degraded_oom
        assert isinstance(resp.plan.fmt, CSRFormat)
        assert server.metrics.oom_degraded == 1
        np.testing.assert_allclose(
            resp.C, spmm_reference(req.matrix, req.B), rtol=1e-4, atol=1e-4
        )

    def test_degraded_plan_replaces_cache_entry(self, liteform, monkeypatch):
        server = self._cell_server(
            liteform, monkeypatch, devices=[_StructuralOnceDevice()]
        )
        req = _request(seed=30)
        first = server.serve(req)
        assert first.degraded_oom
        again = server.serve(req)
        assert again.cache_hit and not again.failed
        assert isinstance(again.plan.fmt, CSRFormat)
        assert server.metrics.oom_degraded == 1  # OOM paid exactly once

    def test_degradation_does_not_consume_retry_budget(self, liteform, monkeypatch):
        server = self._cell_server(
            liteform,
            monkeypatch,
            devices=[_StructuralOnceDevice()],
            retry=RetryPolicy(max_attempts=1),
        )
        resp = server.serve(_request(seed=31))
        assert not resp.failed and resp.degraded_oom
        assert server.metrics.retries == 0

    def test_degradation_disabled_fails_the_request(self, liteform, monkeypatch):
        server = self._cell_server(
            liteform,
            monkeypatch,
            devices=[_StructuralOnceDevice()],
            degrade_on_oom=False,
            retry=RetryPolicy(max_attempts=3),
        )
        resp = server.serve(_request(seed=32))
        assert resp.failed and not resp.degraded_oom
        # structural OOMs are not retried: the plan can never fit
        assert resp.attempts == 1
        assert server.metrics.oom_degraded == 0
