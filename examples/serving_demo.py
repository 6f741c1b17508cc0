#!/usr/bin/env python
"""Serving demo: replay Zipf traffic through `SpMMServer` with plan caching.

The one-shot pipeline composes a format per matrix; a serving deployment
sees the *same* matrices over and over (hot GNN graphs, popular
recommender shards), so composed plans should be cached and reused.
This demo:

1. generates a seeded Zipf(1.1) workload over a small matrix pool,
2. replays it through :class:`repro.serve.SpMMServer` on two simulated
   devices — under a :class:`repro.obs.Tracer`, so every request leaves
   nested spans (cache lookup, admission, compose stages, execution),
3. replays a latency-sensitive tier with a composition deadline, showing
   admission control degrading to the CSR fallback instead of blocking,
4. prints the metrics snapshot, a span flame summary, and writes a
   Chrome trace (open build/serving_demo_trace.json in
   https://ui.perfetto.dev).

Run:  python examples/serving_demo.py
"""

from pathlib import Path

from repro.core import LiteForm, generate_training_data
from repro.gpu import SimulatedDevice
from repro.matrices import SuiteSparseLikeCollection
from repro.obs import tracing
from repro.serve import PlanCache, SpMMServer, WorkloadSpec, generate_workload

#: Trace output lives under build/ (gitignored), not the repo root.
TRACE_PATH = Path("build") / "serving_demo_trace.json"


def main() -> None:
    # ------------------------------------------------------------------
    # Offline: train the predictors once (amortized across all traffic).
    print("training LiteForm's predictors on a 12-matrix collection ...")
    collection = SuiteSparseLikeCollection(size=12, max_rows=2_500, seed=1)
    lf = LiteForm().fit(generate_training_data(collection, J_values=(32, 128)))

    # ------------------------------------------------------------------
    # Online: 150 requests over 10 matrices, web-like popularity skew.
    spec = WorkloadSpec(
        num_requests=150, num_matrices=10, zipf_s=1.1,
        J_choices=(32, 64, 128), max_rows=2_500, seed=7,
    )
    server = SpMMServer(
        liteform=lf,
        cache=PlanCache(max_bytes=128 * 2**20),
        devices=[SimulatedDevice(), SimulatedDevice()],
    )
    with tracing() as tracer:
        server.replay(generate_workload(spec))
    print("\n--- best-effort tier ---")
    print(server.report())

    # ------------------------------------------------------------------
    # Where did the time go?  The tracer recorded a span per request with
    # children for cache lookup, compose stages, and kernel launches.
    TRACE_PATH.parent.mkdir(parents=True, exist_ok=True)
    out = tracer.write(TRACE_PATH)
    print(f"\n--- trace: {len(tracer.spans)} spans "
          f"({tracer.coverage():.0%} of wall time), written to {out} ---")
    print(tracer.flame_summary())

    # ------------------------------------------------------------------
    # A latency-sensitive tier: half the requests carry a 0.5 ms composition
    # deadline far below what the pipeline needs, so admission control
    # serves them the CSR row-split fallback immediately.
    tight = WorkloadSpec(
        num_requests=60, num_matrices=10, zipf_s=1.1,
        J_choices=(32, 64, 128), max_rows=2_500, seed=8,
        deadline_ms=0.5, deadline_fraction=0.5,
    )
    server.replay(generate_workload(tight))
    print("\n--- after the deadline tier ---")
    print(server.report())

    snap = server.snapshot()
    print(
        f"\nsnapshot: hit_rate={snap['hit_rate']:.1%} "
        f"degraded={snap['degraded']} "
        f"compose saved {snap['compose_saved_s'] * 1e3:.0f} ms "
        f"vs spent {snap['compose_spent_s'] * 1e3:.0f} ms"
    )


if __name__ == "__main__":
    main()
