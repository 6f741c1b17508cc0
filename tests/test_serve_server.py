"""SpMMServer behaviour: hits, numerics, admission control, device pool."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import LiteForm, generate_training_data
from repro.formats.base import as_csr
from repro.gpu import SimulatedDevice
from repro.kernels import spmm_reference
from repro.matrices import SuiteSparseLikeCollection, power_law_graph
from repro.obs import tracing
from repro.serve import (
    FormatBandit,
    GraphRequest,
    OpRequest,
    OpStage,
    PlanCache,
    PlanSource,
    Scheduler,
    SpMMServer,
)


@pytest.fixture(scope="module")
def liteform():
    coll = SuiteSparseLikeCollection(size=6, max_rows=2500, seed=11)
    return LiteForm().fit(generate_training_data(coll, J_values=(32,)))


@pytest.fixture()
def server(liteform):
    return SpMMServer(liteform=liteform, cache=PlanCache(max_bytes=1 << 30))


def _request(seed=1, n=400, J=32, deadline_ms=None):
    A = power_law_graph(n, 6, seed=seed)
    B = np.random.default_rng(seed).standard_normal((A.shape[1], J)).astype(np.float32)
    return OpRequest(matrix=A, B=B, J=J, deadline_ms=deadline_ms)


class TestCaching:
    def test_second_request_hits(self, server):
        req = _request()
        first = server.serve(req)
        second = server.serve(req)
        assert not first.cache_hit and second.cache_hit
        assert server.metrics.cache_hits == 1 and server.metrics.cache_misses == 1

    def test_hit_is_numerically_identical_to_fresh_compose(self, server, liteform):
        req = _request(seed=3)
        server.serve(req)
        hit = server.serve(req)
        assert hit.cache_hit
        fresh_plan = liteform.compose(req.matrix, req.J)
        C_fresh, _ = fresh_plan.kernel.run(fresh_plan.fmt, req.B, liteform.device)
        np.testing.assert_array_equal(hit.C, C_fresh)
        np.testing.assert_allclose(
            hit.C, spmm_reference(req.matrix, req.B), rtol=1e-4, atol=1e-4
        )

    def test_value_change_deep_in_large_matrix_misses(self, server):
        """A change anywhere in a matrix over 1 MiB per array gets a new
        plan and the new product, not the cached one's."""
        rows, row_nnz = 600, 500
        indptr = np.arange(rows + 1, dtype=np.int32) * row_nnz
        indices = np.tile(np.arange(row_nnz, dtype=np.int32) * 2, rows)
        data = np.random.default_rng(0).standard_normal(rows * row_nnz).astype(np.float32)
        A = sp.csr_matrix((data, indices, indptr), shape=(rows, 1024))
        assert A.data.nbytes > 1 << 20
        B = np.random.default_rng(1).standard_normal((1024, 8)).astype(np.float32)
        server.serve(OpRequest(matrix=A, B=B, J=8))
        A2 = A.copy()
        A2.data[17_000] += 10.0
        second = server.serve(OpRequest(matrix=A2, B=B, J=8))
        assert not second.cache_hit and server.metrics.cache_misses == 2
        np.testing.assert_allclose(
            second.C, spmm_reference(A2, B), rtol=1e-4, atol=1e-4
        )

    def test_in_place_value_change_after_hits_misses(self, server):
        """A re-submitted matrix is compared with a copy of its bytes, so a
        value changed in place after several hits gets a new plan."""
        req = _request(seed=8)
        hits = [server.serve(req).cache_hit for _ in range(3)]
        assert hits == [False, True, True]
        req.matrix.data[len(req.matrix.data) // 2] += 10.0
        changed = server.serve(req)
        assert not changed.cache_hit and server.metrics.cache_misses == 2
        np.testing.assert_allclose(
            changed.C, spmm_reference(req.matrix, req.B), rtol=1e-4, atol=1e-4
        )

    def test_hit_credits_composition_time_saved(self, server):
        req = _request(seed=4)
        miss = server.serve(req)
        assert server.metrics.compose_saved_s == 0.0
        server.serve(req)
        assert server.metrics.compose_saved_s == pytest.approx(
            miss.plan.overhead.total_s
        )

    def test_different_J_is_a_different_plan(self, server):
        A = power_law_graph(300, 5, seed=5)
        r32 = server.serve(OpRequest(matrix=A, B=None, J=32))
        r64 = server.serve(OpRequest(matrix=A, B=None, J=64))
        assert not r64.cache_hit
        assert r32.key != r64.key

    def test_measure_only_request(self, server):
        req = _request(seed=6)
        resp = server.serve(OpRequest(matrix=req.matrix, B=None, J=32))
        assert resp.C is None
        assert resp.measurement is not None and resp.measurement.time_s > 0

    def test_non_canonical_csr_shares_key_with_canonical(self, server):
        """Regression: an unsorted-indices CSR must not bypass as_csr —
        the same logical matrix would get a second cache key and kernels
        would see unsorted indices."""
        A = power_law_graph(300, 5, seed=16)
        indices, data = A.indices.copy(), A.data.copy()
        for i in range(A.shape[0]):  # reverse each row's column order
            lo, hi = A.indptr[i], A.indptr[i + 1]
            indices[lo:hi] = indices[lo:hi][::-1]
            data[lo:hi] = data[lo:hi][::-1]
        unsorted = sp.csr_matrix((data, indices, A.indptr.copy()), shape=A.shape)
        assert not unsorted.has_canonical_format
        first = server.serve(OpRequest(matrix=A, B=None, J=32))
        second = server.serve(OpRequest(matrix=unsorted, B=None, J=32))
        assert second.key == first.key
        assert second.cache_hit

    def test_duplicate_entries_csr_shares_key_with_summed(self, server):
        """A CSR carrying duplicate (row, col) entries is canonicalized."""
        dup = sp.csr_matrix(
            (
                np.array([1.0, 2.0, 3.0, 4.0], dtype=np.float32),
                np.array([1, 1, 2, 3]),
                np.array([0, 2, 4]),
            ),
            shape=(2, 4),
        )
        summed = as_csr(dup.copy())
        assert summed.nnz == 3  # the duplicate collapsed
        r1 = server.serve(OpRequest(matrix=dup, B=None, J=32))
        r2 = server.serve(OpRequest(matrix=summed, B=None, J=32))
        assert r1.key == r2.key and r2.cache_hit


class TestAdmissionControl:
    def test_no_history_admits_optimistically(self, server):
        resp = server.serve(_request(seed=7, deadline_ms=1e-9))
        assert not resp.admission_degraded  # nothing to estimate from yet
        assert resp.plan.overhead.total_s > 0

    def test_deadline_fallback_triggers_and_is_counted(self, server):
        server.serve(_request(seed=8))  # prime the overhead estimate
        resp = server.serve(_request(seed=9, deadline_ms=1e-9))
        assert resp.admission_degraded
        assert not resp.plan.use_cell
        assert type(resp.plan.fmt).__name__ == "CSRFormat"
        assert server.metrics.degraded == 1
        # the numeric answer is still right on the degraded path
        req = _request(seed=9, deadline_ms=1e-9)
        np.testing.assert_allclose(
            resp.C, spmm_reference(req.matrix, req.B), rtol=1e-4, atol=1e-4
        )

    def test_degraded_plan_is_not_cached(self, server):
        server.serve(_request(seed=8))
        degraded = server.serve(_request(seed=10, deadline_ms=1e-9))
        assert degraded.admission_degraded
        best_effort = server.serve(_request(seed=10))
        assert not best_effort.cache_hit  # fallback was not pinned
        assert best_effort.plan.overhead.total_s > 0

    def test_generous_deadline_admits(self, server):
        server.serve(_request(seed=8))
        resp = server.serve(_request(seed=11, deadline_ms=60_000.0))
        assert not resp.admission_degraded and not resp.deadline_missed

    def test_estimate_tracks_history(self, server):
        assert server.estimate_compose_s(1000) is None
        resp = server.serve(_request(seed=12))
        est = server.estimate_compose_s(resp.plan.fmt.nnz)
        assert est is not None and est > 0


class TestDevicePool:
    def test_requests_spread_over_devices(self, liteform):
        server = SpMMServer(
            liteform=liteform, devices=[SimulatedDevice() for _ in range(3)]
        )
        for seed in range(6):
            server.serve(_request(seed=seed, n=300))
        counts = [s["requests"] for s in server.snapshot()["devices"]]
        assert sum(counts) == 6
        assert all(c >= 1 for c in counts)  # least-loaded placement spreads

    def test_rejects_empty_pool(self, liteform):
        with pytest.raises(ValueError):
            SpMMServer(liteform=liteform, devices=[])


class TestMetricsSnapshot:
    def test_snapshot_fields(self, server):
        server.serve(_request(seed=13))
        snap = server.snapshot()
        for key in ("requests", "hit_rate", "degraded", "deadline_misses",
                    "compose_spent_s", "compose_saved_s", "exec_ms",
                    "total_ms", "cache", "devices"):
            assert key in snap, key
        for p in ("p50", "p95", "p99"):
            assert p in snap["exec_ms"] and p in snap["total_ms"]

    def test_report_is_text(self, server):
        server.serve(_request(seed=14))
        text = server.report()
        assert "hit rate" in text and "device[0]" in text

    def test_latency_includes_compose_and_exec(self, server):
        resp = server.serve(_request(seed=15))
        assert resp.latency_ms == pytest.approx(
            resp.compose_overhead_s * 1e3 + resp.measurement.time_ms
        )


class TestResponseStatus:
    def test_ok_status_and_backcompat_views(self, server):
        from repro.serve import ResponseStatus

        resp = server.serve(_request(seed=21))
        assert resp.status is ResponseStatus.OK
        assert resp.ok and not resp.failed and not resp.admission_degraded

    def test_degraded_status_mirrors_property(self, server):
        from repro.serve import ResponseStatus

        server.serve(_request(seed=22, n=300))  # warm the estimator
        resp = server.serve(_request(seed=23, n=2000, deadline_ms=1e-4))
        assert resp.status is ResponseStatus.DEGRADED
        assert resp.admission_degraded and not resp.failed and not resp.ok

    def test_status_serializes_as_string(self, server):
        import json

        resp = server.serve(_request(seed=24))
        assert json.dumps(resp.status) == '"ok"'


class TestAsyncSurface:
    def test_submit_poll_roundtrip(self, server):
        ticket = server.submit(_request(seed=25))
        resp = server.poll(ticket)
        assert resp is not None and resp.C is not None
        assert server.poll(ticket) is None  # claimed exactly once

    def test_drain_preserves_submission_order(self, server):
        r1, r2 = _request(seed=26), _request(seed=27)
        server.submit(r1)
        server.submit(r2)
        out = server.drain()
        assert len(out) == 2
        assert out[0].key != out[1].key
        assert server.drain() == []

    def test_serve_is_submit_poll_wrapper(self, server):
        resp = server.serve(_request(seed=28))
        assert resp.C is not None
        assert server.metrics.requests == 1


def _armed_for(source, liteform):
    """A server and a request whose plan the server will take from
    ``source`` (warm-up traffic served first where a source needs it)."""
    server = SpMMServer(
        liteform=liteform,
        cache=PlanCache(max_bytes=1 << 30),
        speculative=source is PlanSource.SPECULATIVE,
        bandit=(
            FormatBandit(min_obs=1, explore=0.0, seed=0)
            if source is PlanSource.BANDIT
            else None
        ),
    )
    req = _request(seed=21)
    if source in (PlanSource.HIT, PlanSource.BANDIT, PlanSource.REVALUE):
        server.serve(req)
    if source is PlanSource.BANDIT:
        server.cache.clear()  # a miss on a key the bandit has reward for
    elif source is PlanSource.REVALUE:
        A = req.matrix.copy()
        A.data = A.data * np.float32(2.0)  # same pattern, new values
        req = OpRequest(matrix=A, B=req.B, J=req.J)
    elif source is PlanSource.DEGRADED:
        server.serve(_request(seed=22))  # history for the compose estimate
        req.deadline_ms = 1e-9
    return server, req


class TestPlanSource:
    @pytest.mark.parametrize("source", list(PlanSource), ids=lambda s: s.value)
    def test_each_source_is_reported(self, liteform, source):
        server, req = _armed_for(source, liteform)
        with tracing() as tracer:
            resp = server.serve(req)
        server.wait_for_speculation()
        assert resp.plan_source is source
        (span,) = [s for s in tracer.spans if s.name == "request"]
        assert span.attributes["plan_source"] == source.value
        assert span.attributes["cache_hit"] == resp.cache_hit
        assert resp.cache_hit == (source is PlanSource.HIT)
        assert resp.admission_degraded == (source is PlanSource.DEGRADED)
        assert resp.speculative == (source is PlanSource.SPECULATIVE)
        assert resp.plan_reused == (source is PlanSource.REVALUE)
        np.testing.assert_allclose(
            resp.C, spmm_reference(req.matrix, req.B), rtol=1e-4, atol=1e-4
        )

    def test_batch_span_tags_the_source(self, server):
        req = _request(seed=23)
        with tracing() as tracer:
            responses = server.serve_batch([req, req])
        assert [r.plan_source for r in responses] == [PlanSource.COMPOSE] * 2
        (span,) = [s for s in tracer.spans if s.name == "batch"]
        assert span.attributes["plan_source"] == "compose"

    @pytest.mark.parametrize("speculative", [False, True], ids=["batched", "speculative"])
    def test_sources_conserve_requests(self, liteform, speculative):
        """Over a mixed batched replay every response names one source,
        the per-source counts add up to the served requests, and per
        launch (one plan lookup each) they match the server's hit, miss
        and re-value counters, which match the cache's lookups."""
        server = SpMMServer(
            liteform=liteform,
            cache=PlanCache(max_bytes=1 << 30),
            speculative=speculative,
        )
        scheduler = Scheduler(server, max_batch=4, max_wait_ms=0.5)
        for i in range(18):
            step = i // 3  # three same-key arrivals per step fuse into one launch
            if step < 4:  # compose x3, then a hit
                req = _request(seed=30 + step % 3)
            elif step == 4:  # same pattern as seed 31, new values: re-value
                req = _request(seed=31)
                req.matrix = req.matrix.copy()
                req.matrix.data = req.matrix.data * np.float32(3.0)
            else:  # new matrix, deadline below any compose estimate: degraded
                req = _request(seed=40, deadline_ms=1e-9)
            req.arrival_ms = float(step)
            scheduler.submit(req)
        responses = scheduler.drain()
        server.wait_for_speculation()
        m, cache = server.metrics, server.cache

        def count(items):
            return {s: sum(r.plan_source is s for r in items) for s in PlanSource}

        per_request = count(responses)
        assert sum(per_request.values()) == len(responses) == m.requests == 18
        assert per_request[PlanSource.DEGRADED] == m.degraded
        assert per_request[PlanSource.SPECULATIVE] == m.speculative_misses
        launches = count({id(r.measurement): r for r in responses}.values())
        assert sum(launches.values()) == cache.hits + cache.misses == 6
        assert launches[PlanSource.HIT] == m.cache_hits == cache.hits
        assert sum(launches.values()) - launches[PlanSource.HIT] == m.cache_misses
        assert launches[PlanSource.REVALUE] == m.plan_reuses
        if not speculative:
            assert launches == {
                PlanSource.HIT: 1,
                PlanSource.BANDIT: 0,
                PlanSource.REVALUE: 1,
                PlanSource.SPECULATIVE: 0,
                PlanSource.DEGRADED: 1,
                PlanSource.COMPOSE: 3,
            }


class TestRevalueFromCache:
    """A same-pattern miss re-values a resident cache entry: the structure
    travels with cluster handoffs and leaves with evictions."""

    @staticmethod
    def _serve_stage(server, req, scale=1.0):
        """Serve ``req``'s matrix, values scaled, as a one-stage graph."""
        A = req.matrix.copy()
        A.data = A.data * np.float32(scale)
        stage = OpStage(name="agg", op="spmm", matrix=A, inputs=(req.B,))
        resp = server.serve_graph(GraphRequest(stages=[stage])).responses["agg"]
        np.testing.assert_allclose(
            resp.C, spmm_reference(A, req.B), rtol=1e-4, atol=1e-4
        )
        return resp

    def test_adopted_plan_is_revalued(self, liteform):
        donor, receiver = (
            SpMMServer(liteform=liteform, cache=PlanCache(max_bytes=1 << 30))
            for _ in range(2)
        )
        req = _request(seed=50)
        self._serve_stage(donor, req)
        (entry,) = donor.cache.entries()
        assert receiver.adopt(entry, donor)
        resp = self._serve_stage(receiver, req, scale=2.0)
        assert resp.plan_source is PlanSource.REVALUE
        assert receiver.metrics.compose_spent_s == 0.0

    def test_evicted_pattern_composes_again(self, liteform, server):
        req, other = _request(seed=51), _request(seed=52, n=500)
        sizes = [self._serve_stage(server, r).plan.fmt.footprint_bytes
                 for r in (req, other)]
        # Either plan fits alone, both do not: the second put evicts the first.
        small = SpMMServer(liteform=liteform, cache=PlanCache(max_bytes=max(sizes)))
        first = self._serve_stage(small, req)
        self._serve_stage(small, other)
        assert small.cache.evictions == 1
        assert small.cache.newest_of_pattern(first.key.fp.pattern) is None
        indexed = {k for keys in small.cache._by_pattern.values() for k in keys}
        assert indexed == set(small.cache.keys()) and first.key not in indexed
        resp = self._serve_stage(small, req, scale=2.0)
        assert resp.plan_source is PlanSource.COMPOSE
        assert small.metrics.plan_reuses == 0
