"""``tools/perfbench_pairs.py`` on two stub checkouts with fixed output."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "perfbench_pairs.py"
_spec = importlib.util.spec_from_file_location("perfbench_pairs", _PATH)
perfbench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perfbench_pairs)

#: A stub ``perfbench/run.py``: logs its checkout and arguments, then
#: prints a noise line and the fixed JSON ``payload``.
_STUB = """\
import sys
from pathlib import Path

here = Path(__file__).resolve().parents[1]
with open(here.parent / "order.log", "a") as log:
    log.write(here.name + " " + " ".join(sys.argv[1:]) + "\\n")
print("noise line")
print({payload!r})
"""


def _checkout(root: Path, name: str, cpu: float, rps: float, failed: int) -> Path:
    payload = {
        "correct": failed == 0,
        "attempted": 100,
        "failed": failed,
        "metrics": {
            "cpu_ms_per_req": {"value": cpu, "unit": "ms"},
            "requests_per_s": {"value": rps, "unit": "1/s"},
        },
    }
    (root / name / "perfbench").mkdir(parents=True)
    (root / name / "perfbench" / "run.py").write_text(
        _STUB.format(payload=json.dumps(payload))
    )
    return root / name


@pytest.fixture
def checkouts(tmp_path):
    parent = _checkout(tmp_path, "parent", cpu=2.0, rps=400.0, failed=0)
    change = _checkout(tmp_path, "change", cpu=1.5, rps=500.0, failed=1)
    return tmp_path, parent, change


def test_pairs_alternate_and_ratios_are_change_over_parent(checkouts, capsys):
    root, parent, change = checkouts
    code = perfbench_pairs.main(
        [str(parent), str(change), "--workload", "zipf-hot", "--workload", "gnn-fleet",
         "--pairs", "3", "--seconds", "2", "--seed", "7", "--json"]
    )
    assert code == 0
    summaries = json.loads(capsys.readouterr().out)
    assert list(summaries) == ["zipf-hot", "gnn-fleet"]
    log = (root / "order.log").read_text().splitlines()
    assert [line.split()[0] for line in log] == [
        "parent", "change", "change", "parent", "parent", "change"
    ] * 2
    for i, workload in enumerate(summaries):
        assert all(
            line.split()[1:] == ["--workload", workload, "--seed", "7", "--seconds", "2",
                                 "--trace", "0"]
            for line in log[6 * i : 6 * (i + 1)]
        )
        summary = summaries[workload]
        cpu = summary["metrics"]["cpu_ms_per_req"]
        assert cpu["ratios"] == [0.75, 0.75, 0.75] and cpu["median_ratio"] == 0.75
        assert cpu["parent"] == [2.0] * 3 and cpu["change"] == [1.5] * 3
        assert summary["metrics"]["requests_per_s"]["median_ratio"] == 1.25
        assert summary["operations"]["parent"]["failed"] == [0, 0, 0]
        assert summary["operations"]["change"]["failed"] == [1, 1, 1]


def test_table_names_every_metric_and_failed_counts(checkouts, capsys):
    _, parent, change = checkouts
    perfbench_pairs.main([str(parent), str(change), "--workload", "cold-compose",
                          "--pairs", "2", "--seconds", "1"])
    out = capsys.readouterr().out
    assert out.startswith("== cold-compose ==\n")
    assert "cpu_ms_per_req (ms): median change/parent 0.750" in out
    assert "requests_per_s (1/s): median change/parent 1.250" in out
    assert "pair 2: parent 2  change 1.5  ratio 0.750" in out
    assert "parent: failed 0 of 200 operations" in out
    assert "change: failed 2 of 200 operations" in out


def test_zero_parent_value_gives_nan_ratio():
    run = {"failed": 0, "attempted": 1, "metrics": {"m": {"value": 0.0, "unit": "x"}}}
    other = {"failed": 0, "attempted": 1, "metrics": {"m": {"value": 1.0, "unit": "x"}}}
    summary = perfbench_pairs.summarize([{"parent": run, "change": other}])
    assert math.isnan(summary["metrics"]["m"]["median_ratio"])


def test_failing_run_raises(tmp_path):
    (tmp_path / "bad" / "perfbench").mkdir(parents=True)
    (tmp_path / "bad" / "perfbench" / "run.py").write_text("import sys\nsys.exit(3)\n")
    with pytest.raises(RuntimeError, match="exited 3"):
        perfbench_pairs.run_once(tmp_path / "bad", "zipf-hot", 1, 1)
