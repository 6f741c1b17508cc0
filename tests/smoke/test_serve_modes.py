"""Serve-mode matrix smoke: every serving surface the CLI builds (single
node, batched scheduler, sharded frontend, sharded frontend with per-shard
schedulers, sharded frontend with per-shard bandits and speculation)
replays both workloads to completion with no failures."""

import pytest

MODES = {
    "single": [],
    "batch": ["--batch", 4],
    "shards": ["--shards", 2],
    "shards-batch": ["--shards", 2, "--batch", 4],
    "shards-adaptive": ["--shards", 2, "--adaptive", "--speculative"],
}

WORKLOADS = {
    "zipf": ["--requests", 24, "--matrices", 4, "--J-values", 32, "--max-rows", 2000],
    "gnn": ["--workload", "gnn", "--layers", 1, "--epochs", 2, "--feature-dim", 16],
}


def _completed_and_failed(snap: dict, mode: str, workload: str) -> tuple[int, int]:
    """(requests or graphs completed, failures) from a ``serve --json``
    snapshot of the given mode."""
    if mode.startswith("shards"):
        c = snap["cluster"]
        return (c["graphs"] if workload == "gnn" else c["completed"]), c["failed"]
    if mode == "batch":
        server = snap["server"]
        done = server["graphs"] if workload == "gnn" else snap["dispatched"] + snap["shed"]
        return done, server["failed"]
    return (snap["graphs"] if workload == "gnn" else snap["requests"]), snap["failed"]


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("mode", list(MODES))
def test_every_mode_completes_without_failures(run_cli, mode, workload):
    snap = run_cli(
        "serve", *WORKLOADS[workload], *MODES[mode], "--train-size", 6, "--seed", 3, "--json"
    )
    done, failed = _completed_and_failed(snap, mode, workload)
    assert done == (2 if workload == "gnn" else 24), snap
    assert failed == 0, f"{failed} failures in {mode}/{workload}"
