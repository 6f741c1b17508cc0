"""Self-tests of the benchmark: does it see what it claims to measure?

Run from the repository root with ``python3 -m pytest perfbench -q``.
Each test serves a few hundred requests, so the file takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import harness as H
from perfbench import ledger as L

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}

#: The busy-wait injected in the ``kernels.plan`` wrapper, as a share of
#: each plan call's time.  Plan calls take about half of a zipf-hot
#: request, so the request gets about a third slower.
PLAN_SLOWDOWN = 0.8

#: Stage metrics of the compose pipeline (the ``core.*`` family of layers).
CORE_METRICS = (
    "core.pipeline.compose_ms_per_call",
    "matrices.features.us_per_call",
    "core.selector.us_per_call",
    "core.partition_model.us_per_call",
    "core.cost_model.us_per_call",
    "core.bucket_search.us_per_call",
    "formats.cell.build_us_per_call",
)


def traced_pair(workload: str, n: int, tmp_path: Path, slowdown: dict[str, float]):
    """Serve ``n`` requests in alternating chunks under a plain ledger and a
    ledger that busy-waits in the given layers; returns both phases."""
    p = H.prepare(workload, seed=7, n=n, workdir=tmp_path, setup_repeats=1)
    base, slow = H.Phase(), H.Phase()
    ledgers = (L.Ledger(), L.Ledger(slowdown))
    chunks = [
        H.Chunk([p.wl.requests[j] for j in idx], (base, slow)[i % 2], ledgers[i % 2])
        for i, idx in enumerate(np.array_split(np.arange(n), 16))
    ]
    H.serve_chunks(p.wl, p.system, chunks, p.probe)
    return base, slow


def cpu_ms(phase: H.Phase) -> float:
    return float(np.mean(phase.cpu_ns)) / 1e6


def test_injected_plan_slowdown_shows_on_zipf_hot_not_in_compose(tmp_path):
    slowdown = {L.KERNEL_PLAN: PLAN_SLOWDOWN}
    base, slow = traced_pair("zipf-hot", 400, tmp_path, slowdown)
    plan = [H.per_layer(ph, ph)["kernels.plan.us_per_req"][0] for ph in (base, slow)]
    assert plan[1] > plan[0] * (1 + BOUNDS["cpu_ms_per_req"])
    assert cpu_ms(slow) > cpu_ms(base) * (1 + BOUNDS["cpu_ms_per_req"])

    base, slow = traced_pair("cold-compose", 192, tmp_path, slowdown)
    before, after = H.per_layer(base, base), H.per_layer(slow, slow)
    for name in CORE_METRICS:
        assert after[name][0] <= before[name][0] * (1 + BOUNDS["latency_p50_ms"]), name
    assert after["kernels.plan.us_per_req"][0] > before["kernels.plan.us_per_req"][0]


@pytest.mark.parametrize("workload,n", [("zipf-hot", 100), ("cold-compose", 48),
                                        ("gnn-fleet", 20)])
def test_cache_counters_add_up_to_observed_lookups(workload, n, tmp_path):
    base, _ = traced_pair(workload, n, tmp_path, {})
    assert base.lookups > 0
    assert base.hits + base.misses == base.lookups


@pytest.mark.parametrize("workload,n", [("zipf-hot", 100), ("gnn-fleet", 20)])
def test_layer_self_times_sum_to_request_time(workload, n, tmp_path):
    p = H.prepare(workload, seed=7, n=n, workdir=tmp_path, setup_repeats=1)
    ledger, phase = L.Ledger(), H.Phase()
    H.serve_chunks(p.wl, p.system, [H.Chunk(p.wl.requests, phase, ledger)], p.probe)

    totals = ledger.totals()
    assert sum(t["self_ns"] for t in totals.values()) == ledger.request_ns()
    assert max(s[4] for s in ledger.spans) + 1 == n  # one request id per call

    metrics = H.per_layer(phase, phase)
    others = sum(phase.layers[name]["self_ns"] for name in L.LAYERS if name != L.SERVER)
    server_us = (phase.request_ns - others) / 1e3 / n
    assert metrics["serve.server.self_us_per_req"][0] == pytest.approx(server_us)
    assert metrics["trace.request_us_per_req"][0] == pytest.approx(
        sum(t["self_ns"] for t in phase.layers.values()) / 1e3 / n)


def test_reported_metrics_are_those_benchmark_json_declares(tmp_path):
    p = H.prepare("zipf-hot", seed=7, n=100, workdir=tmp_path, setup_repeats=1)
    phase = H.Phase()
    H.serve_chunks(p.wl, p.system, [H.Chunk(p.wl.requests, phase, L.Ledger())], p.probe)
    declared = {kind: {(m["name"], m["unit"]) for m in SPEC[kind]}
                for kind in ("end_to_end", "per_layer")}
    reported = {
        "end_to_end": {(k, u) for k, (_, u) in H.end_to_end(phase, 1.0, 1).items()},
        "per_layer": {(k, u) for k, (_, u) in H.per_layer(phase, phase).items()},
    }
    assert reported == declared


def test_wrappers_are_removed_after_a_traced_chunk():
    sites = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in L.wrap_points()]
    with L.Ledger().installed():
        assert any(owner.__dict__[attr] is not raw for owner, attr, raw in sites)
    assert all(owner.__dict__[attr] is raw for owner, attr, raw in sites)


@pytest.mark.parametrize("seed", [21, 22])
def test_each_seed_gives_the_same_workload_shape(seed, tmp_path):
    def traced(workload: str, n: int) -> dict:
        p = H.prepare(workload, seed=seed, n=n, workdir=tmp_path, setup_repeats=1)
        phase = H.Phase()
        H.serve_chunks(p.wl, p.system, [H.Chunk(p.wl.requests, phase, L.Ledger())], p.probe)
        return {k: v for k, (v, _) in H.per_layer(phase, phase).items()}

    zipf = traced("zipf-hot", 100)
    assert zipf["serve.plan_cache.hit_ratio"] == 1.0
    assert zipf["core.pipeline.compose_calls_per_req"] == 0.0

    cold = traced("cold-compose", 112)
    assert cold["serve.plan_cache.hit_ratio"] == 0.0
    assert cold["core.pipeline.compose_calls_per_req"] == 1.0
    assert cold["serve.plan_cache.evictions_per_req"] > 0

    small, large = traced("gnn-fleet", 10), traced("gnn-fleet", 30)
    for gnn in (small, large):
        assert gnn["serve.graph.reuse_ratio"] == 1.0
        assert gnn["serve.graph.device_stages_per_graph"] == 3.5
        assert gnn["core.pipeline.compose_calls_per_req"] == 0.0
    assert large["serve.plan_cache.bytes_end"] > small["serve.plan_cache.bytes_end"]


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "zipf-hot", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
