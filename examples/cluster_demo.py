#!/usr/bin/env python
"""Cluster demo: a 4-shard serving fleet with routing, replication, chaos.

One `SpMMServer` scales a device pool; `ClusterFrontend` scales the
fleet.  Requests route to shards by plan key over a consistent-hash
ring, so every repeat of a matrix lands where its plan is cached.  This
demo drives a 4-shard fleet through the whole lifecycle:

1. replays skewed traffic and shows cache-aware routing — the fleet
   composes each fingerprint exactly once, wherever it is popular,
2. hammers one hot matrix until the frequency sketch flags it, its plan
   replicates to ring successors, and traffic spreads over the replicas
   by power-of-two-choices,
3. grows the fleet with `add_shard()` — only ~1/N of the keys move, and
   their plans move with them (no recompose storm),
4. kills the busiest shard mid-replay and shows that requests re-route
   through the repaired ring: cache warmth is lost, requests are not.

Run:  python examples/cluster_demo.py
"""

from repro.core import LiteForm, generate_training_data
from repro.matrices import SuiteSparseLikeCollection
from repro.serve import ClusterFrontend, OpRequest, WorkloadSpec, generate_workload


def fleet_misses(frontend: ClusterFrontend) -> int:
    return sum(s["cache"]["misses"] for s in frontend.snapshot()["shards"])


def main() -> None:
    # ------------------------------------------------------------------
    # Offline: train the predictors once, shared by every shard.
    print("training LiteForm's predictors on a 12-matrix collection ...")
    collection = SuiteSparseLikeCollection(size=12, max_rows=2_500, seed=1)
    lf = LiteForm().fit(generate_training_data(collection, J_values=(32,)))

    # ------------------------------------------------------------------
    # 1. Cache-aware routing: 120 requests over 10 matrices, 4 shards.
    spec = WorkloadSpec(
        num_requests=120, num_matrices=10, zipf_s=1.1,
        J_choices=(32,), max_rows=2_500, seed=7,
    )
    requests = generate_workload(spec)
    frontend = ClusterFrontend(
        lf, num_shards=4, replication=2, hot_fraction=0.25, seed=3
    )
    frontend.replay(requests)
    print(
        f"\n--- 4 shards, {spec.num_requests} requests over "
        f"{spec.num_matrices} matrices ---"
    )
    print(
        f"fleet composed {fleet_misses(frontend)} plans "
        f"(one per fingerprint), routing skew "
        f"{frontend.routing_skew:.2f}x"
    )

    # ------------------------------------------------------------------
    # 2. Hot-key replication: one matrix dominates the stream.
    hot = requests[0].matrix
    frontend.replay(
        [OpRequest(matrix=hot, B=None, J=32) for _ in range(60)]
    )
    m = frontend.metrics
    print("\n--- after hammering one matrix ---")
    print(
        f"hot keys {m.hot_keys}, plans replicated {m.plans_replicated}, "
        f"replica-routed requests {m.replica_routes}"
    )

    # ------------------------------------------------------------------
    # 3. Elastic growth: plans migrate with their keys.
    before = fleet_misses(frontend)
    change = frontend.add_shard()
    frontend.replay(requests)
    print(f"\n--- {change.shard_id} joined ---")
    print(
        f"{change.keys_moved}/{change.cached_keys} cached keys moved "
        f"({change.fraction:.0%} of the key space), "
        f"{change.plans_migrated} plans migrated"
    )
    print(
        f"replaying the same trace composed "
        f"{fleet_misses(frontend) - before} new plans (warm start)"
    )

    # ------------------------------------------------------------------
    # 4. Chaos: kill the busiest shard mid-replay.  The ring repairs,
    # requests re-route, and only cache warmth is lost.
    metrics = frontend.replay(requests, kill_shard_at_ms=len(requests) / 2)
    print("\n--- shard killed mid-replay ---")
    print(
        f"completed {metrics.completed - 120 - 60 - 120}/{len(requests)}, "
        f"failed {metrics.failed}, availability {metrics.availability:.0%}, "
        f"{len(frontend.shards)} shards live"
    )

    print("\n--- final fleet report ---")
    print(frontend.report())


if __name__ == "__main__":
    main()
