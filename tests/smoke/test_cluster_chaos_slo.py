"""Cluster chaos smoke: a shard kill mid-trace loses nothing, the SLO
fast-burn page fires, and the merged Perfetto trace links rerouted
requests across shard lanes by trace id."""

import json
from collections import Counter

import pytest

from repro.serve import PlanSource


@pytest.fixture(scope="module")
def cluster(run_cli, artifacts_dir):
    # The 240-request cluster replay is the slowest smoke, so its three
    # contracts share one run.
    slo_report = artifacts_dir / "slo_report.json"
    trace_path = artifacts_dir / "cluster_trace.json"
    out = run_cli(
        "serve",
        "--requests",
        240,
        "--matrices",
        8,
        "--measure-only",
        "--shards",
        4,
        "--devices",
        2,
        "--replication",
        2,
        "--kill-shard",
        60,
        "--death-rate",
        0.01,
        "--retries",
        2,
        "--slo",
        "--slo-window-ms",
        100,
        "--slo-report",
        slo_report,
        "--trace",
        trace_path,
        "--train-size",
        6,
        "--seed",
        3,
        "--json",
    )
    return out["cluster"], slo_report, trace_path, out["shards"]


def test_chaos_kill_loses_no_requests(cluster):
    snap, _, _, _ = cluster
    assert snap["completed"] == 240, snap["completed"]
    assert snap["failed"] == 0, f"requests lost to chaos: {snap['failed']}"
    assert snap["availability"] == 1.0, snap["availability"]
    assert snap["shards_killed"] == 1, "chaos kill never fired"
    assert snap["shards_live"] == 3, snap["shards_live"]
    assert snap["rerouted"] > 0, "no request ever crossed shards"


def test_slo_fast_burn_page_fired_without_breaching_target(cluster):
    # The fast-burn page fired during the fault storm, while
    # request-level availability never breached its 99% target.
    snap, slo_report, _, _ = cluster
    slo = json.loads(slo_report.read_text())
    pages = [a for a in slo["alerts"] if a["severity"] == "page"]
    assert pages, f"no page alert fired: {slo['alerts']}"
    assert all(0.0 < a["cumulative_sli"] < 1.0 for a in pages), pages
    assert snap["availability"] >= slo["slos"]["availability"]["target"]


def test_merged_trace_links_reroutes_across_shard_lanes(cluster):
    # Merged Perfetto trace: one lane per component, and at least one
    # rerouted request's spans linked across two shards' lanes by a
    # single trace id.
    _, _, trace_path, _ = cluster
    trace = json.loads(trace_path.read_text())
    events = trace["traceEvents"]
    names = {
        e["pid"]: e["args"]["name"]
        for e in events
        if e.get("ph") == "M" and e["name"] == "process_name"
    }
    assert len(names) >= 5, f"expected frontend + 4 shard lanes: {names}"
    lanes = {}
    for e in events:
        tid = e.get("args", {}).get("trace_id")
        if e.get("ph") == "X" and tid:
            lanes.setdefault(tid, set()).add(names[e["pid"]])
    crossed = [
        t
        for t, ls in lanes.items()
        if sum(1 for lane in ls if lane.startswith("shard")) >= 2
    ]
    assert crossed, "no trace id spans two shard lanes"


def test_every_served_request_names_its_plan_source(cluster):
    # Each shard-level serve (reroutes included) tags its request span
    # with where its plan came from, so the per-source counts add up to
    # the requests the shards served.
    _, _, trace_path, shards = cluster
    events = json.loads(trace_path.read_text())["traceEvents"]
    sources = Counter(
        e["args"].get("plan_source")
        for e in events
        if e.get("ph") == "X" and e["name"] == "request"
    )
    assert set(sources) <= {s.value for s in PlanSource}, sources
    assert sum(sources.values()) == sum(s["requests"] for s in shards), sources
