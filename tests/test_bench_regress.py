"""The benchmark-regression harness: snapshot structure, tolerance-band
comparison semantics, baseline round-trips, and the ``cli bench`` gate."""

import json
from pathlib import Path

import pytest

from repro.bench.regress import (
    DEFAULT_TOLERANCES,
    SCHEMA_VERSION,
    WALL_ROUNDS,
    Metric,
    compare_snapshots,
    default_baseline_path,
    load_snapshot,
    run_suite,
    snapshot_filename,
    write_snapshot,
)
from repro.cli import main

COMMITTED_BASELINE = Path(__file__).resolve().parents[1] / default_baseline_path()


def snap(*metrics: Metric) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "rev": "test",
        "metrics": {m.name: m.to_json() for m in metrics},
    }


@pytest.fixture(scope="module")
def suite_snapshot():
    """One real full-suite run shared by the structure tests."""
    return run_suite()


def deterministic(snapshot: dict) -> dict:
    return {
        name: payload
        for name, payload in snapshot["metrics"].items()
        if payload["kind"] in ("exact", "virtual")
    }


class TestSuiteSnapshot:
    def test_schema_and_envelope(self, suite_snapshot):
        assert suite_snapshot["schema"] == SCHEMA_VERSION
        assert suite_snapshot["rounds"] == WALL_ROUNDS
        assert set(suite_snapshot["env"]) == {"python", "numpy", "scipy"}
        assert suite_snapshot["metrics"]

    def test_metric_kinds_are_known(self, suite_snapshot):
        for name, payload in suite_snapshot["metrics"].items():
            assert payload["kind"] in DEFAULT_TOLERANCES, name
            assert isinstance(payload["value"], float)

    def test_expected_metrics_present(self, suite_snapshot):
        names = set(suite_snapshot["metrics"])
        for required in (
            "compose.P1.wall_ms",
            "compose.P1.speedup_vs_reference",
            "compose.speedup_geomean",
            "compose.structure_checksum",
            "kernel.execute.wall_ms",
            "kernel.execute.checksum",
            "plan.virtual_ms",
            "tune.evaluations",
        ):
            assert required in names

    def test_deterministic_metrics_repeat(self, suite_snapshot):
        again = deterministic(run_suite(include_serve=False))
        assert again
        for name, payload in again.items():
            assert suite_snapshot["metrics"][name]["value"] == payload["value"], name

    def test_metric_layout_matches_committed_baseline(self, suite_snapshot):
        def layout(snapshot):
            return {
                name: (p["kind"], p["unit"], p.get("tol"))
                for name, p in snapshot["metrics"].items()
            }

        assert layout(suite_snapshot) == layout(load_snapshot(COMMITTED_BASELINE))

    def test_deterministic_metrics_match_committed_baseline(self, suite_snapshot):
        """The bit-identity guards: every exact/virtual metric equals the
        committed baseline within that metric's own tolerance."""
        baseline = load_snapshot(COMMITTED_BASELINE)
        report = compare_snapshots(
            {**baseline, "metrics": deterministic(baseline)},
            {**suite_snapshot, "metrics": deterministic(suite_snapshot)},
        )
        assert report.ok, report.render()

    def test_roundtrip_through_disk(self, suite_snapshot, tmp_path):
        path = write_snapshot(suite_snapshot, tmp_path / snapshot_filename("abc"))
        assert path.name == "BENCH_abc.json"
        assert load_snapshot(path) == suite_snapshot


class TestSnapshotIO:
    def test_load_rejects_schema_mismatch(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": SCHEMA_VERSION + 1, "metrics": {}}))
        with pytest.raises(ValueError, match="schema"):
            load_snapshot(path)

    def test_load_rejects_non_snapshot(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text(json.dumps({"hello": 1}))
        with pytest.raises(ValueError, match="schema"):
            load_snapshot(path)


class TestComparison:
    def test_identical_snapshots_pass(self):
        s = snap(Metric("a.wall_ms", 10.0, "wall", "ms"), Metric("b.count", 3.0, "exact"))
        report = compare_snapshots(s, s)
        assert report.ok
        assert all(r.status == "ok" for r in report.rows)

    def test_wall_within_band_passes(self):
        base = snap(Metric("a.wall_ms", 100.0, "wall", "ms"))
        cur = snap(Metric("a.wall_ms", 150.0, "wall", "ms"))
        assert compare_snapshots(base, cur).ok

    def test_wall_regression_fails(self):
        base = snap(Metric("a.wall_ms", 100.0, "wall", "ms"))
        cur = snap(Metric("a.wall_ms", 161.0, "wall", "ms"))
        report = compare_snapshots(base, cur)
        assert not report.ok
        assert report.failures[0].name == "a.wall_ms"

    def test_wall_improvement_is_not_failure(self):
        base = snap(Metric("a.wall_ms", 100.0, "wall", "ms"))
        cur = snap(Metric("a.wall_ms", 30.0, "wall", "ms"))
        report = compare_snapshots(base, cur)
        assert report.ok
        assert report.rows[0].status == "improved"

    def test_ratio_drop_fails_but_gain_passes(self):
        base = snap(Metric("speedup", 4.0, "ratio", "x"))
        assert not compare_snapshots(base, snap(Metric("speedup", 2.0, "ratio", "x"))).ok
        report = compare_snapshots(base, snap(Metric("speedup", 8.0, "ratio", "x")))
        assert report.ok
        assert report.rows[0].status == "improved"

    def test_exact_drift_fails_both_directions(self):
        base = snap(Metric("evals", 320.0, "exact"))
        assert not compare_snapshots(base, snap(Metric("evals", 321.0, "exact"))).ok
        assert not compare_snapshots(base, snap(Metric("evals", 319.0, "exact"))).ok
        assert compare_snapshots(base, snap(Metric("evals", 320.0, "exact"))).ok

    def test_exact_with_tol_allows_float_noise(self):
        base = snap(Metric("checksum", 1e6, "exact", tol=1e-9))
        assert compare_snapshots(base, snap(Metric("checksum", 1e6 * (1 + 1e-12), "exact", tol=1e-9))).ok
        assert not compare_snapshots(base, snap(Metric("checksum", 1e6 * 1.01, "exact", tol=1e-9))).ok

    def test_virtual_drift_fails_both_directions(self):
        base = snap(Metric("plan.virtual_ms", 1.0, "virtual", "ms"))
        assert not compare_snapshots(base, snap(Metric("plan.virtual_ms", 1.1, "virtual", "ms"))).ok
        assert not compare_snapshots(base, snap(Metric("plan.virtual_ms", 0.9, "virtual", "ms"))).ok

    def test_vanished_metric_fails_new_metric_passes(self):
        base = snap(Metric("a.wall_ms", 10.0, "wall", "ms"))
        cur = snap(Metric("b.wall_ms", 10.0, "wall", "ms"))
        report = compare_snapshots(base, cur)
        assert not report.ok
        statuses = {r.name: r.status for r in report.rows}
        assert statuses["a.wall_ms"] == "missing"
        assert statuses["b.wall_ms"] == "new"

    def test_schema_mismatch_raises(self):
        good = snap(Metric("a", 1.0, "exact"))
        bad = dict(good, schema=SCHEMA_VERSION + 1)
        with pytest.raises(ValueError, match="schema"):
            compare_snapshots(bad, good)
        with pytest.raises(ValueError, match="schema"):
            compare_snapshots(good, bad)

    def test_render_mentions_verdict(self):
        base = snap(Metric("a.wall_ms", 100.0, "wall", "ms"))
        assert "PASS" in compare_snapshots(base, base).render()
        text = compare_snapshots(base, snap(Metric("a.wall_ms", 999.0, "wall", "ms"))).render()
        assert "FAIL" in text and "a.wall_ms" in text


class TestCLIBenchGate:
    def test_update_then_check_passes(
        self, tmp_path, capsys, monkeypatch, suite_snapshot
    ):
        monkeypatch.setattr(
            "repro.bench.regress.run_suite", lambda **_: suite_snapshot
        )
        baseline = tmp_path / "baseline.json"
        assert main([
            "bench", "--no-serve",
            "--out", str(tmp_path), "--baseline", str(baseline),
            "--update-baseline",
        ]) == 0
        assert baseline.exists()
        assert main([
            "bench", "--no-serve",
            "--out", str(tmp_path), "--baseline", str(baseline), "--check",
        ]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert any(p.name.startswith("BENCH_") for p in tmp_path.iterdir())

    def test_check_without_baseline_errors(self, tmp_path, capsys, monkeypatch):
        def no_suite(**_):
            raise AssertionError("the suite ran before the baseline check")

        monkeypatch.setattr("repro.bench.regress.run_suite", no_suite)
        rc = main([
            "bench", "--no-serve",
            "--out", str(tmp_path),
            "--baseline", str(tmp_path / "nope.json"), "--check",
        ])
        assert rc == 2
        assert "baseline" in capsys.readouterr().err

    def test_check_fails_on_tampered_baseline(
        self, tmp_path, capsys, monkeypatch, suite_snapshot
    ):
        baseline = tmp_path / "baseline.json"
        payload = json.loads(json.dumps(suite_snapshot))
        payload["metrics"]["tune.evaluations"]["value"] += 1  # impossible count
        write_snapshot(payload, baseline)
        monkeypatch.setattr(
            "repro.bench.regress.run_suite", lambda **_: suite_snapshot
        )
        rc = main([
            "bench", "--no-serve",
            "--out", str(tmp_path), "--baseline", str(baseline), "--check",
        ])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out
