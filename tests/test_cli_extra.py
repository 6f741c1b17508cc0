"""Additional CLI coverage (compare subcommand, argument handling)."""

import contextlib
import io
import json

import pytest

import repro.cli
from repro.cli import build_parser, main as cli_main
from repro.core import LiteForm, generate_training_data
from repro.core.persistence import save_liteform
from repro.matrices import SuiteSparseLikeCollection, power_law_graph, write_matrix_market
from repro.obs import parse_prometheus
from repro.serve import Scheduler


@pytest.fixture(scope="module")
def models_path(tmp_path_factory):
    coll = SuiteSparseLikeCollection(size=6, max_rows=2500, seed=99)
    lf = LiteForm().fit(generate_training_data(coll, J_values=(32,)))
    path = tmp_path_factory.mktemp("models") / "m.pkl"
    save_liteform(lf, path)
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["explode"])

    def test_compose_defaults(self):
        args = build_parser().parse_args(["compose", "gnn:cora"])
        assert args.J == 128 and not args.json


class TestCompare:
    def test_compare_prints_all_systems(self, capsys, models_path, tmp_path):
        A = power_law_graph(400, 5, seed=1)
        mtx = tmp_path / "a.mtx"
        write_matrix_market(A, mtx)
        assert cli_main(["compare", str(mtx), "--models", str(models_path), "-J", "32"]) == 0
        out = capsys.readouterr().out
        for name in ("cusparse", "sputnik", "sparsetir", "stile", "liteform"):
            assert name in out
        assert "vs_cusparse" in out


class TestComposeFallback:
    def test_adhoc_training_when_no_models(self, capsys):
        # small --train-size keeps this quick; exercises the training path
        assert cli_main(["compose", "gnn:citeseer", "--train-size", "4", "-J", "32"]) == 0
        assert "use_cell" in capsys.readouterr().out


class TestCompareOOMReference:
    def test_oom_reference_prints_dashes(self, capsys, models_path, tmp_path, monkeypatch):
        """Regression: if the cuSPARSE reference OOMs, the speedup column
        must print '-' instead of inf/garbage ratios."""
        import repro.cli as cli
        from repro.gpu.device import SimulatedOOMError

        real_make = cli.make_baseline

        class OOMSystem:
            name = "cusparse"

            def prepare(self, A, J, device):
                raise SimulatedOOMError(10**12, 16 * 2**30)

        def fake_make(name):
            return OOMSystem() if name == "cusparse" else real_make(name)

        monkeypatch.setattr(cli, "make_baseline", fake_make)
        A = power_law_graph(300, 5, seed=2)
        mtx = tmp_path / "a.mtx"
        write_matrix_market(A, mtx)
        assert cli.main(["compare", str(mtx), "--models", str(models_path), "-J", "32"]) == 0
        out = capsys.readouterr().out
        assert "OOM" in out
        assert "inf" not in out
        # every non-reference row shows '-' in the vs_cusparse column
        for line in out.splitlines():
            if line.startswith(("sputnik", "liteform")):
                assert "-" in line.split()[2] or line.split()[2] == "-"


class TestServeRejectsUnusedFlags:
    """``serve`` exits on a flag its mode would silently ignore, before
    any training or replay (so the state file is never touched)."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--shards", "2", "--adaptive", "--bandit-state", "{state}"], "single-node only"),
            (["--bandit-state", "{state}"], "requires --adaptive"),
            (["--kill-shard", "3"], "--kill-shard requires --shards"),
            (["--replication", "2"], "--replication > 1 requires --shards"),
            (["--slo"], "require --shards"),
            (["--shards", "2", "--slo-report", "{state}"], "--slo-report requires --slo"),
            (["--max-queue", "4"], "--max-queue requires --batch"),
            (["--faults", "0.1", "--drift-after", "5"], "cannot combine with fault injection"),
            (["--workload", "gnn", "--shards", "2", "--kill-shard", "3"], "--workload zipf"),
            (["--workload", "gnn", "--shards", "2", "--slo"], "--workload zipf"),
        ],
    )
    def test_rejected(self, tmp_path, argv, message):
        state = tmp_path / "state.bin"
        with pytest.raises(SystemExit, match=message):
            cli_main(["serve", *(a.format(state=state) for a in argv)])
        assert not state.exists()


def _shard_config(surface: Scheduler) -> dict:
    """What the serve flags set on one node or shard."""
    server = surface.server
    return {
        "cache_max_bytes": server.cache.max_bytes,
        "max_attempts": server.retry.max_attempts,
        "degrade_on_oom": server.degrade_on_oom,
        "speculative": server.speculative,
        "devices": [type(d) for d in server.devices],
        "queueing": (surface.max_batch, surface.max_wait_ms, surface.max_queue),
        "bandit": (server.bandit.min_obs, server.bandit.explore),
    }


def test_every_shard_is_built_like_the_single_node():
    argv = ["serve", "--batch", "4", "--speculative", "--retries", "1", "--cache-mb", "8",
            "--adaptive", "--bandit-min-obs", "2", "--faults", "0.05", "--seed", "5"]
    lf = LiteForm()
    single = repro.cli._build_surface(build_parser().parse_args(argv), lf)
    cluster = repro.cli._build_surface(build_parser().parse_args([*argv, "--shards", "2"]), lf)
    assert isinstance(single, Scheduler)
    assert single.server.bandit.seed == 5
    for index in range(2):
        shard = cluster._shards[f"shard-{index}"].surface
        assert _shard_config(shard) == _shard_config(single)
        assert shard.server.bandit.seed == 5 + index


def _stats(*extra) -> str:
    """stdout of ``stats`` on a small trace (20 requests, 4 matrices)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        argv = ["stats", "--requests", "20", "--matrices", "4", "--train-size", "4"]
        assert cli_main([*argv, *extra]) == 0
    return out.getvalue()


class TestStats:
    """``stats`` counters add up on one node and on a cluster, and its
    text output is a parseable Prometheus exposition."""

    def test_single_node_json(self):
        snap = json.loads(_stats("--json"))
        assert snap["serve_requests_total"] == 20
        assert snap["serve_cache_hits_total"] + snap["serve_cache_misses_total"] == 20

    def test_cluster_json(self):
        snap = json.loads(_stats("--json", "--shards", "2"))
        assert snap["cluster_completed_total"] == 20
        shards = snap["cluster"]["shards"]
        assert sum(s["requests"] for s in shards) == 20
        assert sum(s["cache"]["hits"] + s["cache"]["misses"] for s in shards) == 20

    def test_single_node_prometheus(self):
        families = parse_prometheus(_stats())
        assert families["serve_requests_total"]["samples"] == [("serve_requests_total", {}, 20.0)]

    def test_cluster_prometheus(self):
        text = _stats("--shards", "2")
        # The fleet report follows the exposition, from its "shards" line on.
        families = parse_prometheus(text[: text.index("\nshards ") + 1])
        assert families["cluster_completed_total"]["samples"] == [
            ("cluster_completed_total", {}, 20.0)
        ]


@pytest.mark.parametrize("command", ["serve", "stats", "train"])
def test_max_rows_below_pool_floor_exits_before_training(command, monkeypatch, tmp_path):
    def no_training(*args, **kwargs):
        raise AssertionError("trained before validating the workload")

    monkeypatch.setattr(repro.cli, "_get_liteform", no_training)
    monkeypatch.setattr(repro.cli, "generate_training_data", no_training)
    output = [str(tmp_path / "models.pkl")] if command == "train" else []
    with pytest.raises(SystemExit, match="max_rows must be >= 2000"):
        cli_main([command, *output, "--max-rows", "500"])
    assert not (tmp_path / "models.pkl").exists()


def test_truncated_models_bundle_exits_with_one_line(models_path, tmp_path):
    cut = tmp_path / "cut.pkl"
    cut.write_bytes(models_path.read_bytes()[:100])
    with pytest.raises(SystemExit, match="cannot load --models: .*cut.pkl") as exc:
        cli_main(["compose", "gnn:cora", "--models", str(cut)])
    assert "\n" not in str(exc.value.code)
