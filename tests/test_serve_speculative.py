"""Speculative recompose: immediate CSR on miss, background swap, OOM pins.

A cache miss on a speculative server never blocks on the full pipeline:
the request is served the CSR fallback plan immediately (status DEGRADED,
``speculative=True``) while a single-worker background executor composes
the real plan, which the *serving thread* swaps into the cache once ready
(the :class:`PlanCache` is not thread-safe, so swaps apply only between
requests or in ``wait_for_speculation``).

The degrade interaction (the bug class this suite pins down): a key whose
cache entry holds a CSR plan pinned by a *structural* OOM must never have
a speculative CELL plan swapped over it — the OOM already proved the full
plan cannot fit that working set.
"""

import threading
from dataclasses import dataclass
from functools import partial

import numpy as np
import pytest

from repro.core import LiteForm, generate_training_data
from repro.formats.base import as_csr
from repro.formats.csr import CSRFormat
from repro.gpu import SimulatedDevice, SimulatedOOMError
from repro.kernels import spmm_reference
from repro.matrices import SuiteSparseLikeCollection, power_law_graph
from repro.serve import OpRequest, PlanCache, SpMMServer
from repro.serve.fingerprint import PlanKey, fingerprint_csr
from repro.serve.scheduler import Scheduler
from repro.serve.server import ResponseStatus


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


def _key(request):
    return PlanKey(fingerprint_csr(as_csr(request.matrix)), "spmm", request.J)


def _server(liteform, **kwargs):
    kwargs.setdefault("cache", PlanCache(max_bytes=1 << 30))
    return SpMMServer(liteform=liteform, speculative=True, **kwargs)


@dataclass
class _ArmedDevice(SimulatedDevice):
    """Raises a structural OOM while armed, then behaves normally."""

    armed: bool = False

    def measure(self, stats):
        if self.armed:
            self.armed = False
            raise SimulatedOOMError(2 * self.spec.dram_bytes, self.spec.dram_bytes)
        return super().measure(stats)


class TestSpeculativeMiss:
    def test_miss_serves_csr_immediately(self, liteform):
        server = _server(liteform)
        resp = server.serve(_request(seed=40))
        assert resp.speculative and not resp.cache_hit
        assert resp.status is ResponseStatus.DEGRADED
        assert not resp.plan.use_cell
        m = server.metrics
        assert m.speculative_misses == 1 and m.cache_misses == 1
        # Speculative service is not admission degradation.
        assert m.degraded == 0

    def test_swap_then_hit_matches_blocking_server(self, liteform):
        req = _request(seed=41)
        spec = _server(liteform)
        first = spec.serve(req)
        assert first.speculative
        applied = spec.wait_for_speculation()
        assert applied == 1
        assert spec.metrics.speculative_swaps == 1

        second = spec.serve(req)
        assert second.cache_hit and not second.speculative
        assert second.status is ResponseStatus.OK

        blocking = SpMMServer(liteform=liteform, cache=PlanCache(max_bytes=1 << 30))
        ref = blocking.serve(req)
        assert second.plan.use_cell == ref.plan.use_cell
        assert second.plan.max_widths == ref.plan.max_widths

    def test_speculative_response_is_numerically_correct(self, liteform):
        req = _request(seed=42, with_B=True)
        server = _server(liteform)
        resp = server.serve(req)
        assert resp.speculative and resp.C is not None
        np.testing.assert_allclose(
            resp.C, spmm_reference(req.matrix, req.B), rtol=1e-4, atol=1e-4
        )

    def test_inflight_compose_is_not_duplicated(self, liteform, monkeypatch):
        gate = threading.Event()
        original = liteform.compose_csr

        def gated(A, J, **kw):
            gate.wait(timeout=30)
            return original(A, J, **kw)

        monkeypatch.setattr(liteform, "compose_csr", gated)
        server = _server(liteform)
        req = _request(seed=43)
        server.serve(req)
        server.serve(req)  # still a miss; compose still in flight
        assert len(server._inflight) == 1
        assert server.metrics.speculative_misses == 2
        gate.set()
        assert server.wait_for_speculation() == 1

    def test_background_compose_error_is_skipped(self, liteform, monkeypatch):
        def boom(A, J, **kw):
            raise RuntimeError("injected compose failure")

        monkeypatch.setattr(liteform, "compose_csr", boom)
        server = _server(liteform)
        req = _request(seed=44)
        resp = server.serve(req)
        assert resp.speculative and not resp.failed
        assert server.wait_for_speculation() == 0
        assert server.metrics.speculative_skipped == 1
        assert server.metrics.speculative_swaps == 0
        assert not server._inflight  # the failed future was drained

    def test_replay_settles_speculation(self, liteform):
        requests = [_request(seed=s) for s in (45, 46, 47)]
        server = _server(liteform)
        server.replay(requests)
        assert not server._inflight
        m = server.metrics
        assert m.speculative_misses == 3
        assert m.speculative_swaps == 3
        for r in requests:
            assert _key(r) in server.cache

    def test_scheduler_replay_settles_speculation(self, liteform):
        server = _server(liteform)
        scheduler = Scheduler(server=server, max_batch=4)
        scheduler.replay([_request(seed=s) for s in (48, 48, 49)])
        assert not server._inflight
        assert server.metrics.speculative_swaps >= 1
        assert server.metrics.speculative_misses >= 2


class TestOOMPinInteraction:
    def _cell_liteform(self, liteform, monkeypatch):
        # Force CELL plans so the structural-OOM degrade path has a
        # bigger-footprint plan to fall back from.
        monkeypatch.setattr(
            liteform,
            "compose_csr",
            partial(LiteForm.compose_csr, liteform, force_cell=True),
        )
        return liteform

    def test_pinned_key_is_not_overwritten_after_eviction(
        self, liteform, monkeypatch
    ):
        """T1: swap lands -> CELL hit OOMs structurally -> pin -> entry
        evicted -> the re-miss re-pins the CSR fallback without paying a
        background compose that would only be discarded."""
        lf = self._cell_liteform(liteform, monkeypatch)
        device = _ArmedDevice()
        server = _server(lf, devices=[device])
        req = _request(seed=50)
        key = _key(req)

        first = server.serve(req)
        assert first.speculative
        assert server.wait_for_speculation() == 1
        assert server.cache.peek(key).plan.use_cell

        device.armed = True
        second = server.serve(req)
        assert second.cache_hit and second.degraded_oom and not second.failed
        assert isinstance(second.plan.fmt, CSRFormat)
        assert key in server._oom_pinned
        assert isinstance(server.cache.peek(key).plan.fmt, CSRFormat)

        # Eviction (or shard migration) drops the entry; the pin survives.
        assert server.cache.pop(key) is not None
        third = server.serve(req)
        assert third.speculative and not third.failed
        assert not third.plan.use_cell
        assert not server._inflight, "pinned key must not re-compose"
        entry = server.cache.peek(key)
        assert entry is not None and isinstance(entry.plan.fmt, CSRFormat)

        fourth = server.serve(req)
        assert fourth.cache_hit and not fourth.degraded_oom
        assert server.metrics.oom_degraded == 1  # OOM paid exactly once

    def test_pin_during_speculative_window_blocks_swap(
        self, liteform, monkeypatch
    ):
        """T2: the compose is *in flight* when a replicated CELL plan hits
        a structural OOM and pins the key; the late swap must be skipped,
        not clobber the pin."""
        lf = self._cell_liteform(liteform, monkeypatch)
        gate = threading.Event()
        forced = lf.compose_csr

        def gated(A, J, **kw):
            gate.wait(timeout=30)
            return forced(A, J, **kw)

        monkeypatch.setattr(lf, "compose_csr", gated)
        device = _ArmedDevice()
        server = _server(lf, devices=[device])
        req = _request(seed=51)
        key = _key(req)

        first = server.serve(req)
        assert first.speculative and len(server._inflight) == 1

        # A cluster peer replicates the hot key's CELL plan into this
        # shard's cache while the local compose is still in flight.
        cell_plan = forced(as_csr(req.matrix), req.J)
        assert cell_plan.use_cell
        server.cache.put(key, cell_plan)

        device.armed = True
        second = server.serve(req)
        assert second.cache_hit and second.degraded_oom and not second.failed
        assert key in server._oom_pinned

        gate.set()
        assert server.wait_for_speculation() == 0
        m = server.metrics
        assert m.speculative_skipped == 1 and m.speculative_swaps == 0
        entry = server.cache.peek(key)
        assert entry is not None and isinstance(entry.plan.fmt, CSRFormat)

        third = server.serve(req)
        assert third.cache_hit and not third.failed
        assert isinstance(third.plan.fmt, CSRFormat)


class TestMetricsSurface:
    def test_snapshot_and_report_carry_speculative_counters(self, liteform):
        server = _server(liteform)
        server.serve(_request(seed=52))
        server.wait_for_speculation()
        snap = server.metrics.snapshot()
        assert snap["speculative_misses"] == 1
        assert snap["speculative_swaps"] == 1
        assert snap["speculative_skipped"] == 0
        assert "speculative" in server.metrics.report()
        reg = server.metrics.registry
        assert reg.get("serve_speculative_misses_total").value == 1
        assert reg.get("serve_speculative_swaps_total").value == 1

    def test_non_speculative_server_unchanged(self, liteform):
        server = SpMMServer(liteform=liteform, cache=PlanCache(max_bytes=1 << 30))
        resp = server.serve(_request(seed=53))
        assert not resp.speculative
        assert server.metrics.speculative_misses == 0
        assert server.wait_for_speculation() == 0
        assert "speculative" not in server.metrics.report()
