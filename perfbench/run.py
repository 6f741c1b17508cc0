"""Serving benchmark of the LiteForm reproduction.

    python3 perfbench/run.py --workload zipf-hot --seed 1 --seconds 10 --trace 0

Runs one workload through the public serving API in this process, checks
every output, and prints one JSON object as the last line of stdout:
end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``.  Spans of a traced run are written under
``.perfbench_out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# One process, no extra threads: pin the BLAS pools before NumPy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("zipf-hot", "cold-compose", "gnn-fleet")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench.harness import run

    result = run(args.workload, args.seed, args.seconds, bool(args.trace), OUT)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if result.ledger is not None:
        result.ledger.write(OUT / f"{tag}.spans.jsonl")
    print(f"{tag}: {json.dumps(result.details)}", file=sys.stderr)
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
