"""Graph (DAG) requests: validation, numerics, structural reuse, wiring.

The reuse contract under test is the live-serving version of Fig. 8: a
multi-layer GNN chain over one adjacency composes once per (A, op-set)
and re-values thereafter, and the chained result is bit-identical to
executing the same stages sequentially as un-batched op requests.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LiteForm, generate_training_data
from repro.formats.cell import CELLFormat
from repro.kernels.cell_spmm import CELLSpMM
from repro.kernels.registry import kernel_for_op
from repro.kernels.sddmm import CELLSDDMM, sddmm_reference
from repro.matrices import SuiteSparseLikeCollection, power_law_graph
from repro.matrices.gnn import GNNWorkloadSpec, generate_gnn_workload
from repro.obs import tracing
from repro.serve import (
    ClusterFrontend,
    GraphEngine,
    GraphRequest,
    OpRequest,
    OpStage,
    PlanCache,
    Scheduler,
    SpMMServer,
)
from repro.serve.graph import graph_anchor, row_softmax, row_sum_normalize


@pytest.fixture(scope="module")
def liteform():
    coll = SuiteSparseLikeCollection(size=6, max_rows=2500, seed=11)
    return LiteForm().fit(generate_training_data(coll, J_values=(32,)))


@pytest.fixture()
def server(liteform):
    return SpMMServer(liteform=liteform, cache=PlanCache(max_bytes=1 << 30))


def _features(n, J=16, seed=0):
    return np.random.default_rng(seed).standard_normal((n, J)).astype(np.float32)


def _gat_stages(A, H, W, index=0, h_ref=None):
    h = h_ref if h_ref is not None else H
    return [
        OpStage(name=f"scores{index}", op="sddmm", matrix=A, inputs=(h, h)),
        OpStage(name=f"attn{index}", op="normalize",
                inputs=(f"@scores{index}",), kind="softmax"),
        OpStage(name=f"agg{index}", op="spmm", matrix=f"@attn{index}", inputs=(h,)),
        OpStage(name=f"update{index}", op="dense", inputs=(f"@agg{index}",),
                weight=W, activation="relu"),
    ]


class TestNormalize:
    def test_row_softmax_rows_sum_to_one(self):
        A = power_law_graph(200, 5, seed=1)
        S = row_softmax(A)
        sums = np.add.reduceat(S.data, S.indptr[:-1][np.diff(S.indptr) > 0])
        np.testing.assert_allclose(sums, 1.0, rtol=1e-5)
        assert S.dtype == np.float32
        assert np.array_equal(S.indptr, A.indptr)
        assert np.array_equal(S.indices, A.indices)

    def test_row_sum_normalize_matches_dense(self):
        A = power_law_graph(150, 4, seed=2)
        S = row_sum_normalize(A)
        dense = A.toarray().astype(np.float64)
        rs = dense.sum(axis=1, keepdims=True)
        rs[rs == 0.0] = 1.0
        np.testing.assert_allclose(
            S.toarray(), (dense / rs).astype(np.float32), rtol=1e-5, atol=1e-6
        )

    def test_empty_rows_survive(self):
        A = sp.csr_matrix(([3.0], ([1], [2])), shape=(5, 5), dtype=np.float32)
        for fn in (row_softmax, row_sum_normalize):
            out = fn(A)
            assert out.nnz == 1

    def test_deterministic(self):
        A = power_law_graph(100, 6, seed=3)
        assert np.array_equal(row_softmax(A).data, row_softmax(A).data)


class TestValidation:
    def _engine(self, server):
        return GraphEngine(server)

    def test_empty_graph_rejected(self, server):
        with pytest.raises(ValueError, match="no stages"):
            self._engine(server).run(GraphRequest(stages=[]))

    def test_duplicate_names_rejected(self, server):
        A = power_law_graph(50, 4, seed=1)
        H = _features(50)
        stages = [
            OpStage(name="x", op="spmm", matrix=A, inputs=(H,)),
            OpStage(name="x", op="spmm", matrix=A, inputs=(H,)),
        ]
        with pytest.raises(ValueError, match="duplicate"):
            self._engine(server).run(GraphRequest(stages=stages))

    def test_forward_reference_rejected(self, server):
        A = power_law_graph(50, 4, seed=1)
        stages = [
            OpStage(name="a", op="spmm", matrix=A, inputs=("@b",)),
            OpStage(name="b", op="dense", inputs=("@a",), weight=np.eye(4)),
        ]
        with pytest.raises(ValueError, match="earlier stage"):
            self._engine(server).run(GraphRequest(stages=stages))

    def test_unknown_op_rejected(self, server):
        with pytest.raises(ValueError, match="unknown stage op"):
            self._engine(server).run(
                GraphRequest(stages=[OpStage(name="a", op="conv", inputs=(1,))])
            )

    def test_arity_enforced(self, server):
        A = power_law_graph(50, 4, seed=1)
        with pytest.raises(ValueError, match="2 input"):
            self._engine(server).run(
                GraphRequest(
                    stages=[OpStage(name="a", op="sddmm", matrix=A,
                                    inputs=(_features(50),))]
                )
            )

    def test_device_stage_needs_matrix(self, server):
        with pytest.raises(ValueError, match="needs a matrix"):
            self._engine(server).run(
                GraphRequest(
                    stages=[OpStage(name="a", op="spmm", inputs=(_features(50),))]
                )
            )

    def test_dense_needs_weight(self, server):
        with pytest.raises(ValueError, match="needs a weight"):
            self._engine(server).run(
                GraphRequest(
                    stages=[OpStage(name="a", op="dense", inputs=(_features(5),))]
                )
            )

    def test_unknown_normalize_kind(self, server):
        A = power_law_graph(50, 4, seed=1)
        with pytest.raises(ValueError, match="normalize kind"):
            self._engine(server).run(
                GraphRequest(
                    stages=[OpStage(name="a", op="normalize", inputs=(A,),
                                    kind="max")]
                )
            )


class TestChainNumerics:
    def test_gat_layer_matches_reference(self, server):
        A = power_law_graph(300, 6, seed=5)
        H = _features(300, seed=5)
        W = _features(16, J=8, seed=6)
        resp = server.serve_graph(
            GraphRequest(name="gat", stages=_gat_stages(A, H, W))
        )
        assert resp.ok and resp.device_stages == 2
        scores = sddmm_reference(A, H, H)
        attn = row_softmax(scores)
        agg = (attn @ H).astype(np.float32)
        expected = np.maximum(agg @ W, np.float32(0.0)).astype(np.float32)
        np.testing.assert_allclose(resp.output, expected, rtol=1e-3, atol=1e-3)
        np.testing.assert_allclose(
            resp.outputs["scores0"].toarray(), scores.toarray(),
            rtol=1e-3, atol=1e-3,
        )

    def test_spmv_stage(self, server):
        A = power_law_graph(200, 5, seed=7)
        ones = np.ones(200, dtype=np.float32)
        resp = server.serve_graph(
            GraphRequest(stages=[OpStage(name="deg", op="spmv", matrix=A,
                                         inputs=(ones,))])
        )
        assert resp.ok
        np.testing.assert_allclose(
            resp.output.ravel(), np.asarray(A @ ones).ravel(), rtol=1e-4
        )

    def test_failed_stage_stops_chain(self, server, monkeypatch):
        A = power_law_graph(100, 4, seed=8)
        H = _features(100, seed=8)

        from repro.serve.server import OpResponse, PlanSource, ResponseStatus

        def fail(request, **kwargs):
            return OpResponse(C=None, measurement=None, plan=None, key=None,
                              plan_source=PlanSource.COMPOSE,
                              status=ResponseStatus.FAILED, deadline_missed=False,
                              device_index=0, compose_overhead_s=0.0,
                              latency_ms=0.0, op=request.op)

        monkeypatch.setattr(server, "_serve_one", fail)
        resp = server.serve_graph(
            GraphRequest(stages=_gat_stages(A, H, _features(16, J=4, seed=9)))
        )
        assert resp.failed
        assert resp.device_stages == 1  # chain stopped at the first stage
        assert "attn0" not in resp.outputs


class TestStructuralReuse:
    def test_multi_layer_epoch_composes_once_per_pattern(self, liteform):
        """3-layer GAT epoch: one full compose per A pattern, every later
        device stage is a cache hit or a structural re-value."""
        server = SpMMServer(liteform=liteform, cache=PlanCache(max_bytes=1 << 30))
        A = power_law_graph(400, 6, seed=10)
        H = _features(400, seed=10)
        stages = []
        h = None
        for i in range(3):
            W = _features(16, J=16, seed=20 + i)
            stages += _gat_stages(A, H if i == 0 else None, W, index=i,
                                  h_ref=h)
            h = f"@update{i}"
        resp = server.serve_graph(GraphRequest(name="epoch", stages=stages))
        assert resp.ok and resp.device_stages == 6
        m = server.metrics
        # Exactly one pipeline compose; everything else hit or re-valued.
        assert m.cache_misses - m.plan_reuses == 1
        assert m.cache_hits + m.plan_reuses + 1 == 6
        assert m.revalue_s >= 0.0
        assert resp.plan_reuses == m.plan_reuses

    def test_revalues_share_one_plan_per_kernel(self, liteform, monkeypatch):
        """Twenty same-pattern matrices with fresh values, each served as
        an SDDMM, an SpMV and an SpMM: one compose, every other miss a
        re-value byte-equal to a fresh compose, each (kernel, width)
        planned at most twice, one memo entry per (kernel, width).  Each
        SpMV re-values the SDDMM entry before it, so it must restart from
        the SpMM kernel, not run the entry's SDDMM kernel."""
        calls = {CELLSpMM: 0, CELLSDDMM: 0}
        for cls in calls:
            def counted(self, fmt, width, _plan=cls.plan, _cls=cls):
                calls[_cls] += 1
                return _plan(self, fmt, width)

            monkeypatch.setattr(cls, "plan", counted)
        server = SpMMServer(liteform=liteform, cache=PlanCache(max_bytes=1 << 30))
        A = power_law_graph(400, 6, seed=14)
        H = _features(400, seed=14)
        operand = {"sddmm": (H, H), "spmv": H[:, :1], "spmm": H}
        rng = np.random.default_rng(14)
        revalued = []
        for _ in range(20):
            M = A.copy()
            M.data = rng.random(A.nnz, dtype=np.float32) + 0.5
            for op in ("sddmm", "spmv", "spmm"):
                resp = server.serve(OpRequest(
                    matrix=M, B=None if op == "sddmm" else operand[op],
                    J=1 if op == "spmv" else 16, op=op,
                    operands=operand[op] if op == "sddmm" else None,
                ))
                assert resp.ok and isinstance(resp.plan.fmt, CELLFormat)
                if resp.plan_reused:
                    revalued.append((M, op, resp.C))
        m = server.metrics
        assert (m.cache_misses, m.plan_reuses, len(revalued)) == (60, 59, 59)
        assert calls[CELLSpMM] <= 4 and calls[CELLSDDMM] <= 2
        assert set(resp.plan.fmt.kernel_memo) == {
            (CELLSpMM(), 16), (CELLSpMM(), 1), (CELLSDDMM(), 16)
        }
        for M, op, C in revalued:
            fresh = liteform.compose_csr(M, 16)
            kernel = kernel_for_op(fresh.fmt, op) or fresh.kernel
            expected, _ = kernel.run(fresh.fmt, operand[op], liteform.device)
            if op == "sddmm":
                C, expected = C.toarray(), expected.toarray()
            assert C.tobytes() == expected.tobytes(), op

    def test_reuse_is_bit_identical_to_fresh_server(self, liteform):
        A = power_law_graph(350, 5, seed=11)
        H = _features(350, seed=11)
        W = _features(16, J=16, seed=12)
        stages = _gat_stages(A, H, W) + _gat_stages(
            A, None, _features(16, J=16, seed=13), index=1, h_ref="@update0"
        )
        g = GraphRequest(name="two", stages=stages)
        warm = SpMMServer(liteform=liteform, cache=PlanCache(max_bytes=1 << 30))
        # a one-byte cache rejects every put: every stage re-composes
        cold = SpMMServer(liteform=liteform, cache=PlanCache(max_bytes=1))
        r1 = warm.serve_graph(g)
        assert warm.metrics.plan_reuses > 0
        r2 = cold.serve_graph(g)
        assert cold.metrics.plan_reuses == 0
        assert np.array_equal(r1.output, r2.output)

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=40),
        J=st.sampled_from([8, 16, 32]),
    )
    def test_two_layer_gcn_one_compose_bit_identical(self, liteform, seed, J):
        """Satellite: a 2-layer GCN chain over the same A performs exactly
        one compose and N launches, bit-identical to sequential un-batched
        execution of the same op requests."""
        lf = liteform
        A = power_law_graph(250, 5, seed=seed)
        H = np.random.default_rng(seed).standard_normal((250, J)).astype(np.float32)
        W0 = np.random.default_rng(seed + 1).standard_normal((J, J)).astype(np.float32)
        W1 = np.random.default_rng(seed + 2).standard_normal((J, J)).astype(np.float32)
        An = row_sum_normalize(A)
        stages = [
            OpStage(name="agg0", op="spmm", matrix=An, inputs=(H,)),
            OpStage(name="up0", op="dense", inputs=("@agg0",), weight=W0,
                    activation="relu"),
            OpStage(name="agg1", op="spmm", matrix=An, inputs=("@up0",)),
            OpStage(name="up1", op="dense", inputs=("@agg1",), weight=W1),
        ]
        server = SpMMServer(liteform=lf, cache=PlanCache(max_bytes=1 << 30))
        resp = server.serve_graph(GraphRequest(name="gcn2", stages=stages))
        assert resp.ok
        m = server.metrics
        # exactly one compose (the first agg misses; the second hits the
        # cache outright — same matrix, same J, same op)
        assert m.cache_misses == 1 and m.cache_hits == 1
        assert m.requests == 2  # N launches: one per aggregation stage
        # sequential un-batched reference through a fresh server
        seq = SpMMServer(liteform=lf, cache=PlanCache(max_bytes=1 << 30))
        a0 = seq.serve(OpRequest(matrix=An, B=H, J=J)).C
        u0 = np.maximum((a0 @ W0).astype(np.float32), np.float32(0.0))
        a1 = seq.serve(OpRequest(matrix=An, B=u0, J=J)).C
        u1 = (a1 @ W1).astype(np.float32)
        assert np.array_equal(resp.output, u1)


class TestWaveReplay:
    def test_wave_bit_identical_to_sequential(self, liteform):
        spec = GNNWorkloadSpec(dataset="cora", model="gat", layers=2, epochs=3,
                               feature_dim=16, hidden_dim=16, seed=4)
        sequential = SpMMServer(liteform=liteform, cache=PlanCache(max_bytes=1 << 30))
        seq = [sequential.serve_graph(g) for g in generate_gnn_workload(spec)]
        waved = SpMMServer(liteform=liteform, cache=PlanCache(max_bytes=1 << 30))
        wav = waved.replay_graphs(generate_gnn_workload(spec))
        assert len(seq) == len(wav) == 3
        for a, b in zip(seq, wav):
            assert np.array_equal(a.output, b.output)

    def test_wave_coalesces_shared_spmm_stages(self, liteform):
        """GCN epochs share the normalized adjacency *values*, so wave
        replay fuses their aggregation stages into one batched launch."""
        spec = GNNWorkloadSpec(dataset="cora", model="gcn", layers=1, epochs=2,
                               feature_dim=16, hidden_dim=16, seed=5)
        server = SpMMServer(liteform=liteform, cache=PlanCache(max_bytes=1 << 30))
        responses = server.replay_graphs(generate_gnn_workload(spec))
        assert all(r.ok for r in responses)
        batched = [r.responses["agg0"].batch_size for r in responses]
        assert batched == [2, 2]

    def test_empty_wave(self, server):
        assert server.replay_graphs([]) == []


class TestWorkloadGenerator:
    def test_deterministic(self):
        spec = GNNWorkloadSpec(dataset="citeseer", layers=2, epochs=2, seed=9,
                               mean_gap_ms=3.0)
        a = generate_gnn_workload(spec)
        b = generate_gnn_workload(spec)
        assert [g.arrival_ms for g in a] == [g.arrival_ms for g in b]
        assert [len(g.stages) for g in a] == [len(g.stages) for g in b]

    def test_gcn_exercises_all_three_ops(self):
        spec = GNNWorkloadSpec(model="gcn", layers=1, epochs=1)
        ops = {s.op for s in generate_gnn_workload(spec)[0].stages}
        assert {"spmv", "spmm", "normalize", "dense"} <= ops

    def test_rejects_bad_spec(self):
        with pytest.raises(ValueError, match="unknown GNN model"):
            generate_gnn_workload(GNNWorkloadSpec(model="sage"))
        with pytest.raises(ValueError, match="layers"):
            generate_gnn_workload(GNNWorkloadSpec(layers=0))
        with pytest.raises(ValueError, match="epochs"):
            generate_gnn_workload(GNNWorkloadSpec(epochs=0))

    def test_arrivals_monotonic(self):
        spec = GNNWorkloadSpec(epochs=4, mean_gap_ms=2.0)
        arrivals = [g.arrival_ms for g in generate_gnn_workload(spec)]
        assert arrivals == sorted(arrivals)
        assert arrivals[-1] > 0


class TestRoutingKey:
    def test_anchor_key_is_first_device_stage(self):
        A = power_law_graph(100, 4, seed=1)
        H = _features(100)
        g = GraphRequest(stages=_gat_stages(A, H, _features(16, J=4)))
        anchor = graph_anchor(g)
        assert anchor.stage is g.stages[0]
        key = anchor.key
        assert key.op == "sddmm" and key.J == 16
        assert str(key).endswith("/sddmm/J16")

    def test_cluster_anchor_stage_reuses_routing_fingerprint(self, liteform, monkeypatch):
        """The frontend's routing fingerprint serves the anchor stage, keyed
        by the stage's own J even where routing saw no literal operand."""
        import repro.serve.graph as graph_mod
        import repro.serve.server as server_mod

        A = power_law_graph(100, 4, seed=1)
        W = _features(16, J=4)
        stages = [
            OpStage(name="h", op="dense", inputs=(_features(100),),
                    weight=np.eye(16, dtype=np.float32)),
            *_gat_stages(A, None, W, h_ref="@h"),
        ]
        assert graph_anchor(GraphRequest(stages=stages)).key.J == 1
        calls = []
        for mod in (graph_mod, server_mod):
            real = mod.fingerprint_csr
            monkeypatch.setattr(
                mod, "fingerprint_csr",
                lambda *a, _real=real, **k: calls.append(1) or _real(*a, **k),
            )
        cluster = ClusterFrontend(liteform, num_shards=2)
        resp = cluster.serve_graph(GraphRequest(stages=stages, name="g"))
        assert resp.ok and resp.device_stages == 2
        assert len(calls) == resp.device_stages  # routing's pass is reused
        assert resp.responses["scores0"].key.J == 16
        alone = SpMMServer(liteform=liteform).serve_graph(GraphRequest(stages=stages))
        assert np.array_equal(resp.output, alone.output)

    def test_fallback_key_for_local_only_graph(self):
        g = GraphRequest(
            name="locals",
            stages=[OpStage(name="d", op="dense", inputs=(_features(4, J=4),),
                            weight=np.eye(4, dtype=np.float32))],
        )
        assert graph_anchor(g).key == "graph:locals"
        assert graph_anchor(g).stage is None


class TestSchedulerAndCluster:
    def test_scheduler_serves_graphs(self, liteform):
        server = SpMMServer(liteform=liteform, cache=PlanCache(max_bytes=1 << 30))
        scheduler = Scheduler(server=server, max_batch=4)
        spec = GNNWorkloadSpec(layers=1, epochs=2, feature_dim=16,
                               hidden_dim=16, mean_gap_ms=2.0, seed=6)
        responses = scheduler.replay_graphs(generate_gnn_workload(spec))
        assert len(responses) == 2 and all(r.ok for r in responses)
        assert server.metrics.graphs == 2

    def test_scheduler_does_not_coalesce_across_ops(self, liteform):
        """Same matrix, same J: an sddmm and an spmm request must land in
        different batches (distinct (fingerprint, op, J) keys)."""
        server = SpMMServer(liteform=liteform, cache=PlanCache(max_bytes=1 << 30))
        scheduler = Scheduler(server=server, max_batch=8)
        A = power_law_graph(200, 5, seed=13)
        H = _features(200, J=16, seed=13)
        requests = [
            OpRequest(matrix=A, B=H, J=16),
            OpRequest(matrix=A, B=None, J=16, operands=(H, H), op="sddmm"),
            OpRequest(matrix=A, B=H, J=16),
        ]
        for r in requests:
            scheduler.submit(r)
        responses = scheduler.drain()
        assert all(not r.failed for r in responses)
        sizes = sorted(r.batch_size for r in responses)
        assert sizes == [1, 2, 2]  # the two spmm fused, the sddmm alone

    def test_frontend_serves_graph_and_counts(self, liteform):
        frontend = ClusterFrontend(liteform, num_shards=2, seed=3)
        spec = GNNWorkloadSpec(layers=2, epochs=2, feature_dim=16,
                               hidden_dim=16, seed=7)
        graphs = generate_gnn_workload(spec)
        responses = [frontend.serve_graph(g) for g in graphs]
        assert all(r.ok for r in responses)
        m = frontend.metrics
        assert m.graphs == 2
        assert m.completed == 2 and m.failed == 0
        assert m.graph_stages == sum(r.device_stages for r in responses)
        snap = frontend.snapshot()
        assert snap["cluster"]["graphs"] == 2
        assert snap["cluster"]["plan_reuses"] >= 1

    def test_traced_serve_graph_leaves_graph_untouched(self, liteform):
        frontend = ClusterFrontend(liteform, num_shards=2, seed=3)
        spec = GNNWorkloadSpec(layers=1, epochs=1, feature_dim=16,
                               hidden_dim=16, seed=8)
        (graph,) = generate_gnn_workload(spec)
        trace_ids = []
        for _ in range(2):
            with tracing() as tracer:
                frontend.serve_graph(graph)
            (ingress,) = [s for s in tracer.spans if s.name == "ingress"]
            trace_ids.append(ingress.trace_id)
        assert trace_ids[0] != trace_ids[1]
        assert graph.ctx is None

    def test_frontend_routes_same_anchor_to_one_shard(self, liteform):
        frontend = ClusterFrontend(liteform, num_shards=3, seed=3)
        spec = GNNWorkloadSpec(layers=1, epochs=3, feature_dim=16,
                               hidden_dim=16, seed=8)
        for g in generate_gnn_workload(spec):
            frontend.serve_graph(g)
        loads = [s["requests"] for s in frontend.snapshot()["shards"]]
        # every epoch shares the anchor adjacency -> one shard took all
        assert sorted(loads, reverse=True)[1:] == [0, 0]


class TestGraphMetrics:
    def test_serve_graph_counters_registered(self, server):
        A = power_law_graph(120, 4, seed=14)
        H = _features(120, seed=14)
        server.serve_graph(
            GraphRequest(stages=_gat_stages(A, H, _features(16, J=8, seed=15)))
        )
        snap = server.metrics.snapshot()
        assert snap["graphs"] == 1
        assert snap["graph_stages"] == 2
        names = set(server.metrics.registry.names())
        assert {
            "serve_graph_requests_total",
            "serve_graph_stages_total",
            "serve_graph_plan_reuses_total",
            "serve_graph_revalue_seconds",
        } <= names

    def test_graph_spans_emitted(self, liteform):
        from repro.obs import Tracer, set_tracer

        tracer = Tracer()
        previous = set_tracer(tracer)
        try:
            server = SpMMServer(liteform=liteform,
                                cache=PlanCache(max_bytes=1 << 30))
            A = power_law_graph(100, 4, seed=16)
            H = _features(100, seed=16)
            server.serve_graph(
                GraphRequest(name="traced",
                             stages=_gat_stages(A, H, _features(16, J=8)))
            )
        finally:
            set_tracer(previous)
        names = [s.name for s in tracer.spans]
        assert "graph" in names
        assert names.count("stage") == 4
        g = next(s for s in tracer.spans if s.name == "graph")
        assert g.attributes["status"] == "ok"
        trace_ids = {s.trace_id for s in tracer.spans if s.name == "stage"}
        assert len(trace_ids) == 1  # all stages share the graph's trace
