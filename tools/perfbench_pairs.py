#!/usr/bin/env python
"""Paired perfbench runs of two checkouts: per-pair change/parent ratios.

Runs each checkout's own ``perfbench/run.py`` on each given workload,
alternating which checkout goes first from pair to pair so neither side
always runs on a warmer or cooler machine, and prints one table per
workload: for every metric the runs report, the parent and change values of
each pair, their change/parent ratio and the median ratio, plus each side's
failed operation count:

    python tools/perfbench_pairs.py ../parent . --workload zipf-hot \\
        --workload cold-compose --pairs 5 --seconds 10

Every run gets the same ``--seed`` and ``--trace 0``, so the metrics are
the end-to-end ones.  ``--json`` prints the same numbers as one JSON
object keyed by workload instead of the tables.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One ``perfbench/run.py`` run in ``checkout``: its last stdout line,
    parsed."""
    cmd = [
        sys.executable,
        "perfbench/run.py",
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if out.returncode != 0:
        raise RuntimeError(f"{checkout}: run.py exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{checkout}: run.py printed nothing")
    return json.loads(lines[-1])


def run_pairs(
    parent: Path, change: Path, workload: str, pairs: int, seconds: int, seed: int
) -> list[dict[str, dict]]:
    """``pairs`` paired runs; the parent goes first in even pairs."""
    checkouts = dict(zip(SIDES, (parent, change)))
    results = []
    for i in range(pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        results.append(
            {side: run_once(checkouts[side], workload, seed, seconds) for side in order}
        )
    return results


def summarize(results: list[dict[str, dict]]) -> dict:
    """Per metric: each side's values, the per-pair ratios and their
    median; per side: failed and attempted operation counts."""
    names = [n for n in results[0]["parent"]["metrics"] if n in results[0]["change"]["metrics"]]
    metrics = {}
    for name in names:
        values = {s: [r[s]["metrics"][name]["value"] for r in results] for s in SIDES}
        ratios = [c / p if p else float("nan") for p, c in zip(values["parent"], values["change"])]
        metrics[name] = {
            "unit": results[0]["parent"]["metrics"][name]["unit"],
            **values,
            "ratios": ratios,
            "median_ratio": statistics.median(ratios),
        }
    counts = {
        s: {k: [r[s][k] for r in results] for k in ("failed", "attempted")} for s in SIDES
    }
    return {"pairs": len(results), "metrics": metrics, "operations": counts}


def format_table(summary: dict) -> str:
    lines = []
    for name, m in summary["metrics"].items():
        lines.append(f"{name} ({m['unit']}): median change/parent {m['median_ratio']:.3f}")
        for i, (p, c, r) in enumerate(zip(m["parent"], m["change"], m["ratios"])):
            lines.append(f"  pair {i + 1}: parent {p:.4g}  change {c:.4g}  ratio {r:.3f}")
    for side, c in summary["operations"].items():
        lines.append(
            f"{side}: failed {sum(c['failed'])} of {sum(c['attempted'])} operations "
            f"(per run {c['failed']})"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path, help="checkout of the parent commit")
    p.add_argument("change", type=Path, help="checkout of the change")
    p.add_argument(
        "--workload", action="append", required=True, help="repeat for several workloads"
    )
    p.add_argument("--pairs", type=int, default=5)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--json", action="store_true", help="print JSON, not a table")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be >= 1")
    summaries = {
        w: summarize(run_pairs(args.parent, args.change, w, args.pairs, args.seconds, args.seed))
        for w in dict.fromkeys(args.workload)
    }
    if args.json:
        print(json.dumps(summaries))
    else:
        print("\n\n".join(f"== {w} ==\n{format_table(s)}" for w, s in summaries.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
