"""The one serving protocol: `SpMMServer`, `Scheduler` and `ClusterFrontend`
share a ticket book, and each surface keeps its own semantics on top.

Also covers the fixes that ride on the protocol: graph deadlines on both
graph entry points, the scheduler's per-launch accounting, and the
frontend handing its ingress fingerprint to the shard surfaces.
"""

import numpy as np
import pytest

import repro.serve.cluster.frontend as frontend_module
import repro.serve.graph as graph_module
import repro.serve.scheduler as scheduler_module
import repro.serve.server as server_module
from repro.core import LiteForm, generate_training_data
from repro.kernels import spmm_reference
from repro.matrices import SuiteSparseLikeCollection, power_law_graph
from repro.serve import (
    ClusterFrontend,
    ClusterMetrics,
    GraphRequest,
    OpRequest,
    OpStage,
    PlanCache,
    PlanSource,
    ResponseStatus,
    Scheduler,
    SchedulerMetrics,
    ServerMetrics,
    SpMMServer,
)


@pytest.fixture(scope="module")
def liteform():
    coll = SuiteSparseLikeCollection(size=6, max_rows=2500, seed=11)
    return LiteForm().fit(generate_training_data(coll, J_values=(32,)))


def _batched_frontend(lf):
    """Two shards, each a 4-wide scheduler over its own server."""
    return ClusterFrontend(
        lf,
        num_shards=2,
        make_shard=lambda index: Scheduler(server=SpMMServer(liteform=lf), max_batch=4),
    )


SURFACES = {
    "server": lambda lf: SpMMServer(liteform=lf, cache=PlanCache(max_bytes=1 << 30)),
    "scheduler": lambda lf: Scheduler(
        server=SpMMServer(liteform=lf, cache=PlanCache(max_bytes=1 << 30)), max_batch=4
    ),
    "frontend": lambda lf: ClusterFrontend(lf, num_shards=2),
    "frontend-batch": _batched_frontend,
}

SCOREBOARDS = {
    "server": ServerMetrics,
    "scheduler": SchedulerMetrics,
    "frontend": ClusterMetrics,
    "frontend-batch": ClusterMetrics,
}

_MATRICES = [power_law_graph(300 + 50 * i, 5, seed=40 + i) for i in range(3)]


def _requests(J=16, seed=0):
    """Six requests over three matrices: repeats share a plan key, so the
    batching surfaces fuse them into one launch."""
    rng = np.random.default_rng(seed)
    out = []
    for i in (0, 1, 0, 2, 0, 1):
        A = _MATRICES[i]
        B = rng.standard_normal((A.shape[1], J)).astype(np.float32)
        out.append(OpRequest(matrix=A, B=B, J=J, name=f"m{i}"))
    return out


def _copy(request):
    return OpRequest(matrix=request.matrix, B=request.B, J=request.J, name=request.name)


@pytest.mark.parametrize("kind", list(SURFACES))
class TestProtocolContract:
    def test_tickets_claimed_once_in_submission_order(self, liteform, kind):
        surface = SURFACES[kind](liteform)
        requests = _requests()
        tickets = [surface.submit(r) for r in requests]
        assert tickets == sorted(set(tickets))
        first = surface.poll(tickets[0])
        # Only the scheduler's poll is lazy: its event loop needs the
        # whole arrival stream, so nothing runs before a drain.
        lazy = isinstance(surface, Scheduler)
        assert (first is None) == lazy
        responses = ([] if lazy else [first]) + surface.drain()
        assert len(responses) == len(requests)
        assert all(surface.poll(t) is None for t in tickets)
        assert surface.drain() == []
        for request, response in zip(requests, responses):
            assert response.ok
            assert np.allclose(
                response.C, spmm_reference(request.matrix, request.B), rtol=1e-4, atol=1e-4
            )

    def test_c_is_bit_identical_to_a_plain_server(self, liteform, kind):
        requests = _requests(seed=1)
        reference = SpMMServer(liteform=liteform)
        expected = [reference.serve(_copy(r)).C for r in requests]
        surface = SURFACES[kind](liteform)
        for r in requests:
            surface.submit(r)
        got = [r.C for r in surface.drain()]
        assert all(np.array_equal(a, b) for a, b in zip(expected, got))

    def test_serve_answers_one_request(self, liteform, kind):
        surface = SURFACES[kind](liteform)
        request = _requests()[3]
        response = surface.serve(request)
        assert response.ok
        assert np.allclose(response.C, spmm_reference(request.matrix, request.B), atol=1e-4)
        assert surface.drain() == []

    def test_replay_returns_own_scoreboard(self, liteform, kind):
        surface = SURFACES[kind](liteform)
        metrics = surface.replay(_requests())
        assert metrics is surface.metrics
        assert type(metrics) is SCOREBOARDS[kind]
        assert surface.drain() == []

    def test_replay_graphs_keeps_arrival_order(self, liteform, kind):
        surface = SURFACES[kind](liteform)
        H = np.random.default_rng(3).standard_normal((350, 8)).astype(np.float32)
        graphs = [
            GraphRequest(
                stages=[OpStage(name="agg", op="spmm", matrix=_MATRICES[1], inputs=(H,))],
                name=name,
                arrival_ms=arrival,
            )
            for name, arrival in (("late", 3.0), ("early", 1.0), ("middle", 2.0))
        ]
        responses = surface.replay_graphs(graphs)
        assert [r.name for r in responses] == ["early", "middle", "late"]
        assert all(r.ok for r in responses)
        expected = spmm_reference(_MATRICES[1], H)
        assert all(np.allclose(r.output, expected, atol=1e-4) for r in responses)


def test_frontend_fingerprints_each_request_once(liteform, monkeypatch):
    """A ``--shards --batch`` frontend hashes at ingress and hands the
    fingerprint to the shard's scheduler: one hash per request."""
    calls = []
    real = server_module.fingerprint_csr

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in (server_module, scheduler_module, frontend_module, graph_module):
        monkeypatch.setattr(module, "fingerprint_csr", counting)
    surface = _batched_frontend(liteform)
    requests = _requests()
    for r in requests:
        surface.submit(r)
    assert len(surface.drain()) == len(requests)
    assert len(calls) == len(requests)


@pytest.mark.parametrize(
    "entry",
    [
        pytest.param(lambda server, graph: server.serve_graph(graph), id="serve_graph"),
        pytest.param(lambda server, graph: server.replay_graphs([graph])[0], id="replay_graphs"),
    ],
)
def test_graph_deadline_reaches_admission(liteform, entry):
    """Both graph entry points carry the graph's deadline onto its stages:
    a deadline no compose can meet degrades the stage at admission."""
    server = SpMMServer(liteform=liteform)
    warm = power_law_graph(1500, 8, seed=1)
    B = np.ones((warm.shape[1], 16), dtype=np.float32)
    assert server.serve(OpRequest(matrix=warm, B=B, J=16)).plan_source is PlanSource.COMPOSE
    A = power_law_graph(1500, 8, seed=2)
    H = np.ones((A.shape[1], 16), dtype=np.float32)
    graph = GraphRequest(
        stages=[OpStage(name="agg", op="spmm", matrix=A, inputs=(H,))], deadline_ms=1e-6
    )
    stage = entry(server, graph).responses["agg"]
    assert stage.plan_source is PlanSource.DEGRADED
    assert stage.status is ResponseStatus.DEGRADED
    assert np.allclose(stage.C, spmm_reference(A, H), atol=1e-4)


@pytest.mark.parametrize(
    "op, launches, coalesced",
    [("spmv", 4, 0), ("spmm", 1, 4)],
)
def test_scheduler_charges_each_launch_once(liteform, op, launches, coalesced):
    """Four queued requests on one key: spmm fuses them into one launch,
    spmv is served one launch per request, and the makespan and the
    batch counters follow the launches actually made."""
    A = power_law_graph(600, 6, seed=9)
    J = 1 if op == "spmv" else 16
    B = np.random.default_rng(0).standard_normal((A.shape[1], J)).astype(np.float32)
    sched = Scheduler(server=SpMMServer(liteform=liteform), max_batch=8)
    for _ in range(4):
        sched.submit(OpRequest(matrix=A, B=B, J=J, op=op))
    responses = sched.drain()
    assert [r.batch_size for r in responses] == [4 // launches] * 4
    distinct = {id(r.measurement): r.measurement.time_ms for r in responses}
    assert len(distinct) == launches
    m = sched.metrics
    assert (m.batches, m.coalesced, m.dispatched) == (launches, coalesced, 4)
    assert m.makespan_ms == pytest.approx(sum(distinct.values()), rel=1e-12)
