"""FormatBandit: handoff gating, determinism, persistence, migration.

The contract pinned here (docs/ADAPTIVE.md): the bandit defers to the
static selector until some arm of a key reaches ``min_obs`` raw
observations, then overrides it deterministically under a fixed seed;
its state pickles with a magic tag and moves with its plans on shard
migration.
"""

import dataclasses
import pickle
from functools import partial

import numpy as np
import pytest

from repro.core import LiteForm, generate_training_data
from repro.matrices import SuiteSparseLikeCollection, power_law_graph
from repro.serve import (
    ARMS,
    BANDIT_MAGIC,
    ClusterFrontend,
    FormatBandit,
    FormatDriftDevice,
    OpRequest,
    PlanCache,
    PlanKey,
    SpMMServer,
    WorkloadSpec,
    fingerprint_csr,
    generate_workload,
    plan_arm,
)


@pytest.fixture(scope="module")
def liteform():
    coll = SuiteSparseLikeCollection(size=6, max_rows=2500, seed=11)
    return LiteForm().fit(generate_training_data(coll, J_values=(32,)))


SPEC = WorkloadSpec(
    num_requests=60,
    num_matrices=3,
    zipf_s=1.1,
    J_choices=(32,),
    max_rows=2_000,
    with_operands=False,
    seed=5,
)


def _server(liteform, bandit, **kwargs):
    kwargs.setdefault("cache", PlanCache(max_bytes=1 << 30))
    return SpMMServer(liteform=liteform, bandit=bandit, **kwargs)


class TestHandoff:
    def test_defers_until_exactly_min_obs(self):
        """select() returns None through observation min_obs - 1 of the
        best arm, then an arm on the very next call."""
        bandit = FormatBandit(min_obs=3, explore=0.0, seed=0)
        assert bandit.select("k") is None
        for i in range(2):
            bandit.observe("k", "cell", 1.0)
            assert not bandit.ready("k")
            assert bandit.select("k") is None, f"overrode after {i + 1} obs"
        assert bandit.overrides == 0
        bandit.observe("k", "cell", 1.0)
        assert bandit.ready("k")
        assert bandit.select("k") in ARMS
        assert bandit.overrides == 1

    def test_min_obs_counts_one_arm_not_the_key_total(self):
        """Handoff needs min_obs on a *single* arm; observations spread
        across arms do not trigger it early."""
        bandit = FormatBandit(min_obs=3, explore=0.0, seed=0)
        for arm in ARMS:
            bandit.observe("k", arm, 1.0)
        assert bandit.key_observations("k") == 3
        assert not bandit.ready("k")
        assert bandit.select("k") is None

    def test_unobserved_arm_is_forced_first(self):
        """Post-handoff, the optimistic near-zero prior makes an untried
        arm win its first Thompson draw."""
        bandit = FormatBandit(min_obs=1, explore=0.0, seed=3)
        bandit.observe("k", "cell", 1.0)
        assert bandit.select("k") != "cell"

    def test_handoff_is_per_key(self):
        bandit = FormatBandit(min_obs=1, explore=0.0, seed=0)
        bandit.observe("a", "csr", 1.0)
        assert bandit.select("a") is not None
        assert bandit.select("b") is None

    def test_explore_plays_random_arm_before_handoff(self):
        bandit = FormatBandit(min_obs=10**6, explore=1.0, seed=0)
        assert bandit.select("k") in ARMS
        assert bandit.explorations == 1

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="min_obs"):
            FormatBandit(min_obs=0)
        with pytest.raises(ValueError, match="explore"):
            FormatBandit(explore=1.5)
        with pytest.raises(ValueError, match="unknown arm"):
            FormatBandit().observe("k", "coo", 1.0)


class TestDeterminism:
    def test_same_trace_and_seed_identical_arm_choices(self, liteform):
        def run():
            requests = generate_workload(SPEC)
            server = _server(liteform, FormatBandit(min_obs=2, seed=9))
            device = server.devices[0]
            arms = []
            for i, r in enumerate(requests):
                if i == len(requests) // 2:
                    device.fault_rate = 0.0  # no-op; keeps the loop honest
                arms.append(plan_arm(server.serve(r).plan))
            return arms

        assert run() == run()

    def test_different_seed_diverges(self, liteform):
        def run(seed):
            requests = generate_workload(SPEC)
            server = _server(liteform, FormatBandit(min_obs=1, explore=0.3, seed=seed))
            return [plan_arm(server.serve(r).plan) for r in requests]

        # With heavy exploration two seeds should not pick identical
        # sequences (they *may* in principle; these seeds do not).
        assert run(1) != run(2)


class TestPersistence:
    def _traced_bandit(self, liteform):
        server = _server(liteform, FormatBandit(min_obs=2, seed=9))
        for r in generate_workload(SPEC):
            server.serve(r)
        bandit = server.bandit
        assert bandit.key_observations_total() == SPEC.num_requests
        return server, bandit

    def test_round_trip_alongside_plan_cache_spill(self, liteform, tmp_path):
        """Saved bandit state restores: same hyperparameters, same
        per-arm statistics, same context."""
        _, bandit = self._traced_bandit(liteform)
        path = tmp_path / "state.bandit"
        bandit.save(path)

        restored = FormatBandit.load(path)
        assert restored.min_obs == bandit.min_obs
        assert restored.explore == bandit.explore
        assert restored.decay == bandit.decay
        assert restored.state_dict()["stats"] == bandit.state_dict()["stats"]
        for key, ctx in bandit.state_dict()["context"].items():
            np.testing.assert_array_equal(
                restored.state_dict()["context"][key], ctx
            )

    def test_load_overrides_replace_saved_hyperparameters(
        self, liteform, tmp_path
    ):
        _, bandit = self._traced_bandit(liteform)
        path = tmp_path / "state.bandit"
        bandit.save(path)
        restored = FormatBandit.load(path, min_obs=7, explore=0.5)
        assert restored.min_obs == 7
        assert restored.explore == 0.5
        assert restored.state_dict()["stats"] == bandit.state_dict()["stats"]

    def test_load_ignores_saved_decay(self, tmp_path):
        """Bundles written while ``decay`` was a constructor option carry
        it; they still load, with the constant discount."""
        bandit = FormatBandit(min_obs=2, seed=4)
        bandit.observe("k", "csr", 3.0)
        path = tmp_path / "old.bandit"
        with path.open("wb") as fh:
            pickle.dump({**bandit.state_dict(), "decay": 0.7}, fh)
        restored = FormatBandit.load(path)
        assert restored.min_obs == 2 and restored.seed == 4
        assert restored.state_dict() == bandit.state_dict()

    def test_load_rejects_foreign_pickle(self, tmp_path):
        path = tmp_path / "bogus.bandit"
        # v1 state was keyed by plan-key strings; it is not migrated.
        for magic in ("something-else", "repro-banditstate-v1"):
            with path.open("wb") as fh:
                pickle.dump({"magic": magic, "stats": {}}, fh)
            with pytest.raises(ValueError, match="bandit-state"):
                FormatBandit.load(path)
        with pytest.raises(ValueError, match=BANDIT_MAGIC):
            FormatBandit().merge_state({"magic": "nope"})

    def test_merge_adopts_only_unseen_keys(self):
        donor = FormatBandit(seed=1)
        donor.observe("a", "cell", 5.0)
        donor.observe("b", "csr", 7.0)
        local = FormatBandit(seed=2)
        local.observe("a", "cell", 1.0)
        adopted = local.merge_state(donor.state_dict())
        assert adopted == 1  # "b" adopted, local "a" kept
        assert local._stats["a"]["cell"].mean_ms == 1.0
        assert local._stats["b"]["csr"].mean_ms == 7.0

    def test_state_dict_key_subset(self):
        bandit = FormatBandit()
        bandit.observe("a", "cell", 1.0)
        bandit.observe("b", "csr", 2.0)
        state = bandit.state_dict(keys=["b", "missing"])
        assert list(state["stats"]) == ["b"]


class TestServerIntegration:
    def test_flip_re_pins_the_cached_plan(self, liteform):
        """When the bandit's decision differs from the cached plan's arm,
        the cache entry is replaced with the new arm's plan."""
        A = power_law_graph(600, 6, seed=3)
        req = OpRequest(matrix=A, B=None, J=32)
        key = PlanKey(fingerprint_csr(A), "spmm", 32)
        device = FormatDriftDevice(slowdown=8.0)
        server = _server(
            liteform,
            FormatBandit(min_obs=2, explore=0.0, seed=4),
            devices=[device],
        )
        for _ in range(4):
            server.serve(req)
        device.drifted = True  # cell family now 8x slower
        for _ in range(12):
            server.serve(req)
        m = server.metrics
        assert m.bandit_observations == 16
        assert m.bandit_flips > 0
        entry = server.cache.get(key)
        assert entry is not None
        assert plan_arm(entry.plan) != "cell"
        assert m.availability == 1.0

    def test_metrics_mirror_bandit_counters(self, liteform):
        server = _server(liteform, FormatBandit(min_obs=2, seed=9))
        for r in generate_workload(SPEC):
            server.serve(r)
        b, m = server.bandit, server.metrics
        assert m.bandit_observations == b.observations == SPEC.num_requests
        assert m.bandit_overrides == b.overrides
        assert m.bandit_explorations == b.explorations
        snap = m.snapshot()
        assert snap["bandit_observations"] == b.observations
        assert "bandit" in m.report()

    def test_arm_plan_memo_is_bounded(self, liteform, monkeypatch):
        """Arm plans live outside the cache's byte budget, so their memo
        keeps only the most recent _MEMO_LIMIT keys."""
        import repro.serve.server as server_mod

        monkeypatch.setattr(server_mod, "_MEMO_LIMIT", 4)
        # explore=1.0: every miss plays a random arm, building its plan.
        server = _server(liteform, FormatBandit(min_obs=50, explore=1.0, seed=3))
        keys = []
        for seed in range(7):
            A = power_law_graph(150, 4, seed=100 + seed)
            keys.append(server.serve(OpRequest(matrix=A, B=None, J=32)).key)
        assert server.metrics.bandit_explorations == 7
        assert list(server._bandit_plans) == keys[-4:]

    def test_retrain_requires_evidence(self, liteform):
        bandit = FormatBandit()
        assert bandit.retrain(liteform) == 0
        assert bandit.retrains == 0


def _adaptive_shard(liteform, index):
    """A cluster shard with its own bandit, seeded by its index."""
    return SpMMServer(liteform=liteform, bandit=FormatBandit(min_obs=2, seed=7 + index))


class TestClusterMigration:
    def test_bandit_state_moves_with_the_handoff(self, liteform):
        frontend = ClusterFrontend(
            liteform=liteform,
            num_shards=2,
            seed=7,
            make_shard=partial(_adaptive_shard, liteform),
        )
        requests = generate_workload(SPEC)
        for r in requests:
            frontend.serve(r)
        before = sum(
            s.server.bandit.key_observations_total()
            for s in frontend._live()
        )
        assert before == SPEC.num_requests
        frontend.add_shard()
        new = frontend._live()[-1]
        assert new.server.bandit is not None
        # The new shard adopted the donors' evidence for its moved keys:
        # it holds per-key statistics it never observed locally.
        assert new.server.bandit.key_observations_total() > 0
        assert new.server.bandit.observations == 0
        snap = frontend.snapshot()["cluster"]
        assert snap["bandit_observations"] == SPEC.num_requests

    def test_remove_shard_hands_over_the_departing_evidence(self, liteform):
        """The departing shard is off the ring when its plans move, yet
        its bandit evidence for them is the only evidence there is: the
        receivers must adopt it stat for stat."""
        spec = dataclasses.replace(SPEC, num_requests=40, num_matrices=8)
        frontend = ClusterFrontend(
            liteform=liteform,
            num_shards=3,
            seed=7,
            make_shard=partial(_adaptive_shard, liteform),
        )
        frontend.replay(generate_workload(spec))
        victim = max(frontend._live(), key=lambda s: len(s.server.cache))
        moved = [
            k for k in victim.server.cache.keys()
            if frontend.ring.route(k) == victim.shard_id
        ]
        evidence = victim.server.bandit.state_dict(moved)["stats"]
        assert len(evidence) >= 2

        change = frontend.remove_shard(victim.shard_id)
        assert change.plans_migrated == len(moved)
        for key, stats in evidence.items():
            receiver = frontend._shards[frontend.ring.route(key)]
            assert receiver.server.bandit.state_dict([key])["stats"] == {key: stats}
