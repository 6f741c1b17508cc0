"""Extension benchmark: GNN graph serving amortizes compose per (A, op-set).

The live-serving version of the paper's Fig. 8 argument: a multi-layer
GNN epoch is a chain of device stages (SDDMM, SpMM) that all traverse the
same adjacency pattern.  A naive op-level server recomposes per stage; the
graph-serving stack composes the pattern ONCE — the first stage's miss
runs the pipeline, every later stage either hits the plan cache outright
or re-values the resident same-pattern plan — so the amortized compose overhead is
bounded by 1/num_stages of the per-stage recompose baseline.  The chained
result stays bit-identical to a sequential un-batched execution of the
same op requests.
"""

import numpy as np
import pytest

from repro.bench import BenchTable
from repro.matrices.gnn import GNNWorkloadSpec, generate_gnn_workload
from repro.serve import (
    GraphRequest,
    OpRequest,
    PlanCache,
    SpMMServer,
)
from repro.serve.graph import row_softmax

#: Seeded 3-layer GAT epochs over one adjacency: 6 device stages per
#: epoch (3 SDDMM + 3 SpMM), 12 total — the ISSUE's >= 12-compose naive
#: baseline.
GNN_SPEC = GNNWorkloadSpec(
    dataset="cora",
    model="gat",
    layers=3,
    epochs=2,
    feature_dim=32,
    hidden_dim=32,
    seed=23,
)


@pytest.fixture(scope="module")
def epoch_replay(liteform):
    """Serve the multi-epoch trace through one graph-serving server."""
    graphs = generate_gnn_workload(GNN_SPEC)
    # The first compose in a process runs cold and reads up to ~1.9x a warm
    # one.  Pay it here, untimed and discarded, so the replay's one compose
    # is timed warm like every compose of the naive sweep that follows.
    liteform.compose(graphs[0].stages[0].matrix, GNN_SPEC.feature_dim)
    server = SpMMServer(liteform=liteform, cache=PlanCache(max_bytes=1 << 30))
    responses = [server.serve_graph(g) for g in graphs]
    return server, graphs, responses


@pytest.fixture(scope="module")
def naive_compose_total(liteform, epoch_replay):
    """The per-stage recompose baseline: one fresh pipeline compose per
    device stage of the same trace (what an op-level server without the
    plan cache or structural reuse would pay)."""
    _, graphs, responses = epoch_replay
    overheads = []
    for graph, resp in zip(graphs, responses):
        for stage in graph.stages:
            if stage.op not in ("spmm", "sddmm", "spmv"):
                continue
            r = resp.responses[stage.name]
            A = r.plan.fmt.to_csr()
            J = GNN_SPEC.feature_dim if stage.op != "spmv" else 1
            overheads.append(liteform.compose(A, J).overhead.total_s)
    return overheads


def test_ext_gnn_compose_charged_once_per_pattern(benchmark, epoch_replay,
                                                  naive_compose_total):
    server, graphs, responses = benchmark.pedantic(
        lambda: epoch_replay, rounds=1, iterations=1
    )
    m = server.metrics
    assert all(r.ok for r in responses)
    num_stages = sum(r.device_stages for r in responses)
    assert num_stages == 12 and len(naive_compose_total) == 12

    # Deterministic counter form of the claim: every epoch shares one
    # adjacency pattern, so exactly ONE full pipeline compose ran across
    # the whole replay; every other device stage hit the cache or
    # re-valued a resident same-pattern plan.
    full_composes = m.cache_misses - m.plan_reuses
    assert full_composes == 1
    assert m.cache_hits + m.plan_reuses + full_composes == num_stages
    assert m.plan_reuses >= 1

    # Wall-clock form: amortized compose overhead <= 1/num_stages of the
    # naive per-stage recompose baseline (x1.5 timer noise allowance) —
    # re-value rebuilds are charged, full pipeline runs are not repeated.
    naive_total = float(np.sum(naive_compose_total))
    amortized = m.compose_spent_s + m.revalue_s
    bound = naive_total / num_stages * 1.5
    assert amortized <= bound, (amortized, bound)

    table = BenchTable(
        "Extension: GNN graph serving (cora GAT, 3 layers x 2 epochs)",
        ["metric", "value"],
    )
    table.add_row("device stages", num_stages)
    table.add_row("full composes", full_composes)
    table.add_row("plan cache hits", m.cache_hits)
    table.add_row("structural re-values", m.plan_reuses)
    table.add_row("naive per-stage compose (s)", naive_total)
    table.add_row("amortized compose+revalue (s)", amortized)
    table.add_row("amortization factor", naive_total / max(amortized, 1e-12))
    table.emit()


def test_ext_gnn_chain_bit_identical_to_sequential(liteform, epoch_replay):
    """The chained epoch output equals a sequential un-batched execution
    of the same op requests, bit for bit."""
    _, graphs, responses = epoch_replay
    seq = SpMMServer(liteform=liteform, cache=PlanCache(max_bytes=1 << 30))
    J = GNN_SPEC.feature_dim
    for graph, resp in zip(graphs, responses):
        outputs = {}
        h = None
        for stage in graph.stages:
            if stage.op == "sddmm":
                U = h if h is not None else stage.inputs[0]
                r = seq.serve(OpRequest(matrix=stage.matrix, B=None, J=J,
                                        operands=(U, U), op="sddmm"))
                outputs[stage.name] = r.C
            elif stage.op == "normalize":
                outputs[stage.name] = row_softmax(outputs[stage.inputs[0][1:]])
            elif stage.op == "spmm":
                r = seq.serve(OpRequest(matrix=outputs[stage.matrix[1:]],
                                        B=h if h is not None
                                        else stage.inputs[0], J=J))
                outputs[stage.name] = r.C
            else:  # dense
                H = outputs[stage.inputs[0][1:]]
                out = (H @ stage.weight).astype(np.float32)
                if stage.activation == "relu":
                    out = np.maximum(out, np.float32(0.0))
                outputs[stage.name] = out
                h = out
        assert np.array_equal(resp.output, outputs[graph.stages[-1].name]), (
            graph.name
        )


def test_ext_gnn_wave_replay_matches_sequential_graphs(liteform, epoch_replay):
    """replay_graphs (stage-lockstep wave replay with SpMM coalescing)
    returns the same per-graph outputs as serving each graph alone."""
    _, _, responses = epoch_replay
    waved = SpMMServer(liteform=liteform, cache=PlanCache(max_bytes=1 << 30))
    wave_responses = waved.replay_graphs(generate_gnn_workload(GNN_SPEC))
    for a, b in zip(responses, wave_responses):
        assert np.array_equal(a.output, b.output)
