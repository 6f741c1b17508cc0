"""``tools/constructor_options.py``: which options a class has, who sets them."""

import importlib.util
import sys
import textwrap
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "constructor_options.py"
_spec = importlib.util.spec_from_file_location("constructor_options", _PATH)
constructor_options = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = constructor_options  # dataclasses resolve it by name
_spec.loader.exec_module(constructor_options)

_PACKAGE = '''
    from dataclasses import dataclass, field
    from typing import ClassVar, NamedTuple


    class Server:
        def __init__(self, liteform, cache=None, *args, retries=1, **kwargs):
            pass


    class FastServer(Server):
        pass


    @dataclass
    class Spec:
        LIMIT: ClassVar[int] = 4
        size: int = 1
        seed: int = 0
        scratch: list = field(default_factory=list, init=False)


    @dataclass
    class WideSpec(Spec):
        width: int = 2


    class Point(NamedTuple):
        x: int
        y: int


    class Plain:
        pass
'''


@pytest.fixture
def repo(tmp_path):
    def write(rel, text):
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))

    write("src/pkg/__init__.py", "")
    write("src/pkg/model.py", _PACKAGE)
    write("src/pkg/use.py", """
        from pkg.model import Server, Spec
        SERVER = Server("lf", None)
        SPEC = Spec(size=3)
    """)
    write("examples/demo.py", """
        import pkg.model as m
        m.WideSpec(width=4)
    """)
    write("tests/test_pkg.py", """
        from pkg.model import FastServer, Point, Server, Spec
        Server("lf", retries=2)
        FastServer("lf", cache={})
        Spec(seed=1, size=2)
        Point(1, 2)
        Server(*("lf", None), retries=3)
    """)
    return tmp_path


def _run(capsys, repo, *argv):
    assert constructor_options.main(["--root", str(repo), *argv]) == 0
    return capsys.readouterr().out.splitlines()


def _options(repo):
    by_name = constructor_options.scan_classes(repo / "src")
    constructor_options.scan_calls(repo, by_name)
    return {name: infos[0] for name, infos in by_name.items()}


def test_options_are_init_parameters_and_init_fields(repo):
    found = _options(repo)
    assert found["Server"].options == ["liteform", "cache", "retries"]
    assert found["FastServer"].options == ["liteform", "cache", "retries"]
    assert found["Spec"].options == ["size", "seed"]
    assert found["WideSpec"].options == ["size", "seed", "width"]
    assert found["Point"].options == ["x", "y"]
    assert found["Plain"].options == []


def test_call_sites_are_attributed_to_their_area(repo):
    found = _options(repo)
    server = found["Server"].set_in
    assert server == {"liteform": {"src", "tests"}, "cache": {"src"}, "retries": {"tests"}}
    assert found["FastServer"].set_in["cache"] == {"tests"}
    assert found["Spec"].set_in == {"size": {"src", "tests"}, "seed": {"tests"}}
    assert found["WideSpec"].set_in["width"] == {"examples"}
    assert found["Point"].set_in == {"x": {"tests"}, "y": {"tests"}}


def test_report_lists_options_with_areas_and_a_total(repo, capsys):
    out = _run(capsys, repo, "Spec", "Gone")
    assert out == [
        "pkg.model.Spec (2)",
        "    size                         src,tests",
        "    seed                         tests",
        "Gone (no such class) (0)",
        "2 options in 2 classes",
    ]


def test_test_only_lists_options_no_other_area_sets(repo, capsys):
    out = _run(capsys, repo, "--test-only")
    assert out == [
        "pkg.model.FastServer.liteform",
        "pkg.model.FastServer.cache",
        "pkg.model.Point.x",
        "pkg.model.Point.y",
        "pkg.model.Server.retries",
        "pkg.model.Spec.seed",
        "6 test-only options in 4 classes",
    ]


def test_listing_every_class_skips_classes_without_options(repo, capsys):
    out = _run(capsys, repo)
    assert not any(line.startswith("pkg.model.Plain") for line in out)
    assert out[-1] == "13 options in 5 classes"
