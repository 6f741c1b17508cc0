"""Extension benchmark: sharded serving fleet — scaling, chaos, rebalance.

The cluster's claims, each checked on seeded deterministic traffic:

* **near-linear scaling** — on a saturated trace over equal-cost
  matrices, 8 shards with hot-key replication and power-of-two-choices
  routing deliver aggregate throughput within ~15% of linear (the
  simulated-makespan efficiency ``total busy / (N x max busy)`` stays
  >= 0.85);
* **chaos availability** — killing the busiest shard mid-replay over
  fault-injecting device pools loses nothing: cluster availability
  stays at 100%, at least matching the fault-free single-node baseline;
* **bounded remigration** — a membership change remaps <= ~1.5/N of the
  key space (probed on 4096 synthetic keys) and the frontend migrates
  only the cached plans that actually moved;
* **bit identity** — numeric results through the fleet (any shard, any
  replica) are byte-identical to single-node serving.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.gpu.faults import FaultPolicy, FaultyDevice
from repro.serve import (
    ClusterFrontend,
    OpRequest,
    ShardRing,
    SpMMServer,
    remigration_fraction,
)

#: Equal-cost matrix pool of the scaling trace (same shape and density,
#: distinct sparsity patterns, so every fingerprint carries ~equal work).
POOL_SIZE = 64
POOL_SHAPE = 600
POOL_DENSITY = 0.02

SCALING_REQUESTS = 512
SCALING_ZIPF_S = 1.1
SCALING_EFFICIENCY_FLOOR = 0.85


@pytest.fixture(scope="module")
def pool():
    return [
        sp.random(
            POOL_SHAPE,
            POOL_SHAPE,
            density=POOL_DENSITY,
            random_state=np.random.default_rng(1000 + i),
            dtype=np.float32,
            format="csr",
        )
        for i in range(POOL_SIZE)
    ]


class _HotAfter2(ClusterFrontend):
    HOT_MIN_COUNT = 2


def _zipf_indices(n, s, k, seed):
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, k + 1) ** s
    weights /= weights.sum()
    return rng.choice(k, size=n, p=weights)


def _saturated_run(liteform, pool, num_shards, replication, seed=17):
    """Warm every plan, then slam a saturated Zipf trace through the
    fleet; returns (frontend, saturated-phase scaling efficiency)."""
    frontend = _HotAfter2(
        liteform,
        num_shards=num_shards,
        virtual_nodes=128,
        replication=replication,
        hot_fraction=0.004,
        seed=seed,
    )
    warm = [OpRequest(matrix=A, B=None, J=32) for A in pool] * 2
    frontend.replay(warm)
    busy0 = {s["shard_id"]: s["busy_ms"] for s in frontend.snapshot()["shards"]}
    for i in _zipf_indices(SCALING_REQUESTS, SCALING_ZIPF_S, POOL_SIZE, seed=5):
        frontend.submit(OpRequest(matrix=pool[i], B=None, J=32))
    frontend.drain()
    busy1 = {s["shard_id"]: s["busy_ms"] for s in frontend.snapshot()["shards"]}
    deltas = [busy1[k] - busy0[k] for k in busy1]
    max_busy = max(deltas)
    efficiency = (
        sum(deltas) / (len(deltas) * max_busy) if max_busy > 0 else 1.0
    )
    return frontend, efficiency


def test_ext_cluster_scaling_near_linear(benchmark, liteform, pool):
    """8 shards reach >= 85% of linear aggregate throughput on the
    saturated Zipf trace (replicated hot keys + power-of-two-choices)."""
    single, _ = _saturated_run(liteform, pool, num_shards=1, replication=1)
    fleet, efficiency = benchmark.pedantic(
        lambda: _saturated_run(liteform, pool, num_shards=8, replication=4),
        rounds=1,
        iterations=1,
    )
    assert fleet.metrics.failed == 0
    assert efficiency >= SCALING_EFFICIENCY_FLOOR
    # Same requests, same plans, same device model — so throughput scales
    # exactly as the makespan shrinks.  Within 15% of linear on 8 shards:
    t1 = single.aggregate_throughput_rps
    t8 = fleet.aggregate_throughput_rps
    assert t8 >= SCALING_EFFICIENCY_FLOOR * 8 * t1 * 0.9  # 0.9: warmup slack
    benchmark.extra_info["throughput_1_rps"] = t1
    benchmark.extra_info["throughput_8_rps"] = t8
    benchmark.extra_info["saturated_efficiency"] = efficiency


CHAOS_FAULT_RATE = 0.08
CHAOS_REQUESTS = 200


def _chaos_requests(pool):
    idx = _zipf_indices(CHAOS_REQUESTS, SCALING_ZIPF_S, 16, seed=23)
    return [OpRequest(matrix=pool[i], B=None, J=32) for i in idx]


def test_ext_cluster_chaos_availability(benchmark, liteform, pool):
    """Shard-kill chaos over faulty devices: the fleet's availability
    stays at 100% — no worse than the fault-free single-node baseline."""
    baseline = SpMMServer(liteform=liteform)
    baseline.replay(_chaos_requests(pool))

    def factory(shard_index, device_index):
        return FaultyDevice(
            faults=FaultPolicy(
                transient_oom_rate=CHAOS_FAULT_RATE,
                seed=90 + 10 * shard_index + device_index,
            )
        )

    def chaos_run():
        frontend = ClusterFrontend(
            liteform,
            num_shards=4,
            make_shard=lambda index: SpMMServer(
                liteform=liteform, devices=[factory(index, 0)]
            ),
            replication=2,
            seed=31,
        )
        frontend.replay(
            _chaos_requests(pool), kill_shard_at_ms=CHAOS_REQUESTS / 2
        )
        return frontend

    frontend = benchmark.pedantic(chaos_run, rounds=1, iterations=1)
    m = frontend.metrics
    assert m.shards_killed == 1
    assert m.completed == CHAOS_REQUESTS
    assert m.failed == 0
    assert m.availability >= baseline.metrics.availability
    assert len(frontend.shards) == 3


def test_ext_cluster_remigration_bounded(benchmark, liteform, pool):
    """A membership change remaps <= ~1.5/N of the key space, and the
    frontend only migrates the cached plans that actually moved."""
    probes = [f"probe-{i:05d}" for i in range(4096)]
    ring = ShardRing([f"shard-{i}" for i in range(8)], virtual_nodes=128)
    before = ring.assignment(probes)
    ring.add_shard("shard-8")
    frac_add = remigration_fraction(before, ring.assignment(probes))
    assert 0.0 < frac_add <= 1.5 / 9
    before = ring.assignment(probes)
    ring.remove_shard("shard-3")
    frac_remove = remigration_fraction(before, ring.assignment(probes))
    assert 0.0 < frac_remove <= 1.5 / 8

    def elastic_run():
        frontend = ClusterFrontend(liteform, num_shards=4, seed=3)
        frontend.replay(
            [OpRequest(matrix=A, B=None, J=32) for A in pool[:32]]
        )
        return frontend, frontend.add_shard()

    (frontend, change) = benchmark.pedantic(elastic_run, rounds=1, iterations=1)
    assert change.cached_keys == 32
    assert change.keys_moved == change.plans_migrated  # moved plans warm-start
    assert change.fraction <= 1.5 / 5 + 0.1  # small-sample noise on 32 keys
    # the migrated plans serve as hits: replaying composes nothing new
    misses0 = sum(s["cache"]["misses"] for s in frontend.snapshot()["shards"])
    frontend.replay([OpRequest(matrix=A, B=None, J=32) for A in pool[:32]])
    misses1 = sum(s["cache"]["misses"] for s in frontend.snapshot()["shards"])
    assert misses1 == misses0
    benchmark.extra_info["ring_fraction_add"] = frac_add
    benchmark.extra_info["ring_fraction_remove"] = frac_remove


def test_ext_cluster_bit_identical_to_single_node(benchmark, liteform, pool):
    """Numeric results through the fleet equal single-node serving byte
    for byte, regardless of which shard or replica executes."""
    rng = np.random.default_rng(77)
    requests = []
    for i in range(24):
        A = pool[i % 6]
        B = rng.standard_normal((A.shape[1], 32)).astype(np.float32)
        requests.append(OpRequest(matrix=A, B=B, J=32))
    single = SpMMServer(liteform=liteform)
    expected = [
        single.serve(OpRequest(matrix=r.matrix, B=r.B, J=r.J))
        for r in requests
    ]

    def cluster_run():
        frontend = _HotAfter2(
            liteform,
            num_shards=5,
            replication=3,
            hot_fraction=0.1,
            seed=13,
        )
        return [frontend.serve(r) for r in requests]

    got = benchmark.pedantic(cluster_run, rounds=1, iterations=1)
    assert len(got) == len(expected)
    for a, b in zip(expected, got):
        assert not b.failed
        assert np.array_equal(a.C, b.C)
