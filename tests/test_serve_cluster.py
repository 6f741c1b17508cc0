"""`ClusterFrontend` behavior: routing, replication, chaos, elasticity.

The ring's hashing invariants live in ``test_serve_cluster_ring.py``;
these tests drive the full fleet — real servers, real plan caches — and
pin the serving contract: results bit-identical to a single node, no
request lost to membership changes or shard failures, and cached plans
following their keys across the fleet.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass
from functools import partial

import numpy as np
import pytest

from repro.core import LiteForm, generate_training_data
from repro.formats.csr import CSRFormat
from repro.gpu import (
    FaultPolicy,
    FaultyDevice,
    SimulatedDevice,
    SimulatedOOMError,
)
from repro.matrices import SuiteSparseLikeCollection, power_law_graph
from repro.obs import tracing
from repro.serve import (
    ClusterFrontend,
    FormatBandit,
    OpRequest,
    PlanKey,
    RetryPolicy,
    Scheduler,
    SpMMServer,
    WindowedFrequencySketch,
    WorkloadSpec,
    fingerprint_csr,
    generate_workload,
)


@pytest.fixture(scope="module")
def liteform():
    coll = SuiteSparseLikeCollection(size=6, max_rows=2500, seed=11)
    return LiteForm().fit(generate_training_data(coll, J_values=(32,)))


class _HotAfter2(ClusterFrontend):
    HOT_MIN_COUNT = 2


class _HotAfter3(ClusterFrontend):
    HOT_MIN_COUNT = 3


def _matrices(n: int, rows: int = 300):
    return [power_law_graph(rows, 6, seed=100 + i) for i in range(n)]


def _requests(mats, count: int, J: int = 32, with_B: bool = False, seed: int = 0):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        A = mats[i % len(mats)]
        B = None
        if with_B:
            B = rng.standard_normal((A.shape[1], J)).astype(np.float32)
        out.append(OpRequest(matrix=A, B=B, J=J, name=f"m{i % len(mats)}"))
    return out


class TestBitIdentity:
    def test_matches_single_node_numeric(self, liteform):
        mats = _matrices(5)
        reqs = _requests(mats, 15, with_B=True, seed=3)
        single = SpMMServer(liteform=liteform)
        cluster = ClusterFrontend(liteform, num_shards=4)
        for r in reqs:
            a = single.serve(OpRequest(matrix=r.matrix, B=r.B, J=r.J))
            b = cluster.serve(r)
            assert b.ok
            assert np.array_equal(a.C, b.C)

    def test_replicated_serving_stays_identical(self, liteform):
        mats = _matrices(2)
        reqs = _requests(mats, 20, with_B=True, seed=4)
        single = SpMMServer(liteform=liteform)
        cluster = _HotAfter2(liteform, num_shards=4, replication=3, hot_fraction=0.2)
        for r in reqs:
            a = single.serve(OpRequest(matrix=r.matrix, B=r.B, J=r.J))
            b = cluster.serve(r)
            assert np.array_equal(a.C, b.C)


class TestRouting:
    def test_fingerprint_affinity(self, liteform):
        """Without replication every repeat of a matrix lands on the same
        shard, so the fleet composes each fingerprint exactly once."""
        mats = _matrices(6)
        fe = ClusterFrontend(liteform, num_shards=4)
        fe.replay(_requests(mats, 36))
        total_misses = sum(
            s["cache"]["misses"] for s in fe.snapshot()["shards"]
        )
        assert total_misses == len(mats)

    def test_submit_poll_contract(self, liteform):
        fe = ClusterFrontend(liteform, num_shards=2)
        t = fe.submit(_requests(_matrices(1), 1)[0])
        first = fe.poll(t)
        assert first is not None and first.ok
        assert fe.poll(t) is None

    def test_drain_preserves_submission_order(self, liteform):
        mats = _matrices(4)
        fe = ClusterFrontend(liteform, num_shards=3)
        reqs = _requests(mats, 12)
        tickets = [fe.submit(r) for r in reqs]
        responses = fe.drain()
        assert len(responses) == len(reqs)
        assert tickets == sorted(tickets)

    def test_invalid_config(self, liteform):
        with pytest.raises(ValueError):
            ClusterFrontend(liteform, num_shards=0)
        with pytest.raises(ValueError):
            ClusterFrontend(liteform, num_shards=2, replication=0)
        with pytest.raises(ValueError):
            ClusterFrontend(liteform, num_shards=2, hot_fraction=0.0)


class TestHotKeyReplication:
    def test_dominant_key_gets_replicated(self, liteform):
        mats = _matrices(4)
        # 70% of traffic on matrix 0 — a Zipf head.
        pattern = [0, 0, 0, 0, 0, 0, 0, 1, 2, 3]
        reqs = [
            OpRequest(matrix=mats[pattern[i % 10]], B=None, J=32)
            for i in range(50)
        ]
        fe = _HotAfter3(liteform, num_shards=4, replication=2, hot_fraction=0.3)
        m = fe.replay(reqs)
        assert m.hot_keys == 1
        assert m.plans_replicated >= 1
        assert m.replica_routes > 0
        assert m.failed == 0

    def test_cold_uniform_traffic_never_replicates(self, liteform):
        mats = _matrices(8)
        fe = ClusterFrontend(
            liteform, num_shards=4, replication=2, hot_fraction=0.3
        )
        m = fe.replay(_requests(mats, 48))
        assert m.hot_keys == 0
        assert m.plans_replicated == 0


class TestChaos:
    def test_kill_shard_loses_no_requests(self, liteform):
        mats = _matrices(6)
        reqs = _requests(mats, 60)
        fe = ClusterFrontend(liteform, num_shards=4)
        m = fe.replay(reqs, kill_shard_at_ms=30)
        assert m.shards_killed == 1
        assert m.completed == len(reqs)
        assert m.failed == 0
        assert m.availability == 1.0
        assert len(fe.shards) == 3

    def test_dead_device_pool_reroutes(self, liteform):
        """A shard whose every launch dies fails its requests; the
        frontend must re-route them to surviving shards, not surface the
        failure."""
        def factory(shard_index, device_index):
            if shard_index == 0:
                return FaultyDevice(faults=FaultPolicy(death_rate=1.0, seed=9))
            return FaultyDevice(faults=FaultPolicy(seed=90 + shard_index))

        fe = ClusterFrontend(
            liteform,
            num_shards=3,
            make_shard=lambda index: SpMMServer(
                liteform=liteform,
                devices=[factory(index, 0)],
                retry=RetryPolicy(max_attempts=1),
            ),
        )
        m = fe.replay(_requests(_matrices(6), 30))
        assert m.failed == 0
        assert m.availability == 1.0
        # shard-0 owns ~1/3 of fingerprints, so reroutes must have happened
        assert m.rerouted > 0

    def test_kill_last_shard_refused(self, liteform):
        fe = ClusterFrontend(liteform, num_shards=1)
        with pytest.raises(ValueError):
            fe.kill_shard("shard-0")

    def test_kill_unknown_shard(self, liteform):
        fe = ClusterFrontend(liteform, num_shards=2)
        with pytest.raises(KeyError):
            fe.kill_shard("shard-99")
        fe.kill_shard("shard-1")
        with pytest.raises(KeyError):  # already dead
            fe.kill_shard("shard-1")


class TestElasticMembership:
    def test_add_shard_warm_starts_moved_keys(self, liteform):
        mats = _matrices(8)
        fe = ClusterFrontend(liteform, num_shards=3)
        fe.replay(_requests(mats, 24))
        change = fe.add_shard()
        assert change.kind == "add"
        assert change.cached_keys == len(mats)
        assert 0.0 <= change.fraction < 1.0
        assert change.plans_migrated == change.keys_moved
        # Migrated plans must serve as cache hits on their new shard:
        # replaying the same traffic composes nothing new anywhere.
        before = sum(s["cache"]["misses"] for s in fe.snapshot()["shards"])
        fe.replay(_requests(mats, 24))
        after = sum(s["cache"]["misses"] for s in fe.snapshot()["shards"])
        assert after == before

    def test_remove_shard_migrates_and_serves(self, liteform):
        mats = _matrices(8)
        fe = ClusterFrontend(liteform, num_shards=4)
        fe.replay(_requests(mats, 24))
        victim = fe.shards[0]
        change = fe.remove_shard(victim)
        assert change.kind == "remove"
        assert victim not in fe.shards
        before = sum(s["cache"]["misses"] for s in fe.snapshot()["shards"])
        m = fe.replay(_requests(mats, 24))
        after = sum(s["cache"]["misses"] for s in fe.snapshot()["shards"])
        assert after == before  # every migrated plan hit on its new owner
        assert m.failed == 0

    def test_kill_loses_cache_but_recovers(self, liteform):
        mats = _matrices(8)
        fe = ClusterFrontend(liteform, num_shards=4)
        fe.replay(_requests(mats, 24))
        change = fe.kill_shard(fe.shards[0])
        assert change.plans_migrated == 0
        before = sum(s["cache"]["misses"] for s in fe.snapshot()["shards"])
        m = fe.replay(_requests(mats, 24))
        after = sum(s["cache"]["misses"] for s in fe.snapshot()["shards"])
        # the killed shard's plans are gone: exactly those recompose
        assert after - before == change.keys_moved
        assert m.failed == 0

    def test_membership_change_requeues_pending(self, liteform):
        mats = _matrices(6)
        fe = ClusterFrontend(liteform, num_shards=3)
        for r in _requests(mats, 18):
            fe.submit(r)
        victim = fe.shards[0]
        change = fe.kill_shard(victim)
        assert change.requeued > 0
        responses = fe.drain()
        assert len(responses) == 18
        assert all(not r.failed for r in responses)

    def test_migration_touches_no_file(self, liteform, monkeypatch):
        """Plans and bandit evidence move between shards in memory."""
        def no_files(*args, **kwargs):
            raise AssertionError("cluster migration opened a file")

        mats = _matrices(4)
        head = [mats[0]] * 7 + mats[1:]
        reqs = [OpRequest(matrix=head[i % 10], B=None, J=32) for i in range(40)]
        fe = _HotAfter3(
            liteform, num_shards=3, replication=2, hot_fraction=0.3,
            make_shard=lambda index: SpMMServer(
                liteform=liteform, bandit=FormatBandit(seed=index)
            ),
        )
        monkeypatch.setattr(pathlib.Path, "open", no_files)
        assert fe.replay(reqs).plans_replicated >= 1
        fe.add_shard()
        fe.remove_shard(fe.shards[0])
        assert fe.metrics.plans_migrated >= 1
        assert fe.replay(reqs).failed == 0


@dataclass
class _CellOOMDevice(SimulatedDevice):
    """Every CELL launch is a structural OOM; other formats run normally."""

    def measure(self, stats):
        if stats.label.startswith("cell"):
            raise SimulatedOOMError(2 * self.spec.dram_bytes, self.spec.dram_bytes)
        return super().measure(stats)


class TestMigrationCarriesOOMPins:
    """A key pinned to its CSR fallback after a structural OOM stays
    pinned on every shard its plan moves to: an eviction there must not
    start a CELL compose that pays the OOM again."""

    A = power_law_graph(400, 6, seed=50)
    KEY = PlanKey(fingerprint_csr(A), "spmm", 32)

    def _frontend(self, liteform, monkeypatch, cls=ClusterFrontend, **kwargs):
        monkeypatch.setattr(
            liteform,
            "compose_csr",
            partial(LiteForm.compose_csr, liteform, force_cell=True),
        )
        return cls(
            liteform,
            num_shards=2,
            make_shard=lambda index: SpMMServer(
                liteform=liteform, devices=[_CellOOMDevice()], speculative=True
            ),
            **kwargs,
        )

    def _serve(self, fe):
        return fe.serve(OpRequest(matrix=self.A, B=None, J=32))

    def _pin_on_owner(self, fe):
        """Serve until the owner swaps CELL in, OOMs on it and pins."""
        owner = fe._shards[fe.ring.route(self.KEY)]
        self._serve(fe)
        fe.wait_for_speculation()
        assert self._serve(fe).degraded_oom
        assert self.KEY in owner.server._oom_pinned
        return owner

    def _assert_pin_holds(self, fe, receiver):
        assert self.KEY in receiver.server._oom_pinned
        assert isinstance(receiver.server.cache.peek(self.KEY).plan.fmt, CSRFormat)
        assert receiver.server.cache.pop(self.KEY) is not None  # eviction
        assert not self._serve(fe).failed
        assert not receiver.server._inflight, "pinned key must not re-compose"
        fe.wait_for_speculation()
        assert not self._serve(fe).degraded_oom
        # The structural OOM was paid exactly once across the fleet.
        assert sum(s.server.metrics.oom_degraded for s in fe._shards.values()) == 1

    def test_remove_shard_carries_the_pin(self, liteform, monkeypatch):
        fe = self._frontend(liteform, monkeypatch)
        owner = self._pin_on_owner(fe)
        assert fe.remove_shard(owner.shard_id).plans_migrated == 1
        self._assert_pin_holds(fe, fe._live()[0])

    def test_replication_carries_the_pin(self, liteform, monkeypatch):
        fe = self._frontend(liteform, monkeypatch, _HotAfter3, replication=2)
        primary = self._pin_on_owner(fe)
        self._serve(fe)  # third request: hot, the pinned plan replicates
        assert fe.metrics.plans_replicated == 1
        replica = next(s for s in fe._live() if s is not primary)
        fe.kill_shard(primary.shard_id)
        self._assert_pin_holds(fe, replica)


class TestBatchedMode:
    def test_scheduler_per_shard(self, liteform):
        """A factory that returns a scheduler gets the shard's requests
        through it, and its server is the shard's server."""
        schedulers = []

        def make_shard(index):
            schedulers.append(Scheduler(server=SpMMServer(liteform=liteform), max_batch=4))
            return schedulers[-1]

        mats = _matrices(3)
        fe = ClusterFrontend(liteform, num_shards=2, make_shard=make_shard)
        reqs = _requests(mats, 18)
        for r in reqs:
            fe.submit(r)
        responses = fe.drain()
        assert len(responses) == 18
        assert all(not r.failed for r in responses)
        # repeats of one fingerprint coalesce into fused launches
        assert any(r.batch_size > 1 for r in responses)
        for index, scheduler in enumerate(schedulers):
            shard = fe._shards[f"shard-{index}"]
            assert shard.surface is scheduler and shard.server is scheduler.server
        assert sum(s.metrics.submitted for s in schedulers) == 18
        assert sum(s.metrics.batches for s in schedulers) > 0


class TestShardFactory:
    def test_add_shard_builds_with_the_next_index(self, liteform):
        built = {}

        def make_shard(index):
            built[index] = SpMMServer(liteform=liteform)
            return built[index]

        fe = ClusterFrontend(liteform, num_shards=3, make_shard=make_shard)
        assert sorted(built) == [0, 1, 2]
        change = fe.add_shard()
        assert sorted(built) == [0, 1, 2, 3]
        assert change.shard_id == "shard-3"
        assert fe._shards["shard-3"].server is built[3]

    def test_busy_ms_divides_kernel_time_by_pool_width(self, liteform):
        fe = ClusterFrontend(
            liteform,
            num_shards=1,
            make_shard=lambda index: SpMMServer(
                liteform=liteform, devices=[SimulatedDevice(), SimulatedDevice()]
            ),
        )
        responses = [fe.serve(r) for r in _requests(_matrices(3), 6)]
        kernel_ms = sum(r.measurement.time_ms for r in responses)
        (shard,) = fe.snapshot()["shards"]
        assert kernel_ms > 0
        assert shard["devices"] == 2
        assert shard["busy_ms"] == pytest.approx(kernel_ms / 2)


class TestObservability:
    def test_snapshot_shape(self, liteform):
        fe = ClusterFrontend(liteform, num_shards=2)
        fe.replay(_requests(_matrices(3), 9))
        snap = fe.snapshot()
        assert snap["cluster"]["completed"] == 9
        assert snap["cluster"]["shards_live"] == 2
        assert {s["shard_id"] for s in snap["shards"]} == {"shard-0", "shard-1"}
        for s in snap["shards"]:
            assert set(s) >= {"alive", "routed", "completed", "busy_ms", "cache"}

    def test_registry_publishes_cluster_series(self, liteform):
        fe = ClusterFrontend(liteform, num_shards=2)
        fe.replay(_requests(_matrices(3), 9))
        snap = fe.metrics.registry.snapshot()
        assert snap["cluster_routed_total"] == 9
        assert snap["cluster_availability"] == 1.0
        assert snap["cluster_shards_live"] == 2

    def test_report_renders(self, liteform):
        fe = ClusterFrontend(liteform, num_shards=2)
        fe.replay(_requests(_matrices(3), 9))
        text = fe.report()
        assert "shards" in text and "shard-0" in text

    def test_traced_replays_leave_requests_untouched(self, liteform):
        requests = generate_workload(
            WorkloadSpec(num_requests=12, num_matrices=3, J_choices=(32,),
                         max_rows=2_000, with_operands=False, seed=4)
        )
        trace_ids = []
        for _ in range(2):
            with tracing() as tracer:
                ClusterFrontend(liteform, num_shards=2).replay(requests)
            ingress = [s.trace_id for s in tracer.spans if s.name == "ingress"]
            assert len(ingress) == len(set(ingress)) == len(requests)
            trace_ids.append(set(ingress))
        assert trace_ids[0].isdisjoint(trace_ids[1])
        assert all(r.ctx is None for r in requests)


class TestSketchIntegration:
    def test_window_decay(self):
        class EightWide(WindowedFrequencySketch):
            WINDOW = 8

        sk = EightWide()
        for _ in range(8):
            sk.observe("a")
        assert sk.frequency("a") == 1.0
        for _ in range(8):
            sk.observe("b")
        assert sk.count("a") == 0
        assert len(sk) == 8 and sk.frequency("b") == 1.0
