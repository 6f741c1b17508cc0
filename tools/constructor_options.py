#!/usr/bin/env python
"""List each class's constructor options and where callers set them.

An option is an ``__init__`` parameter (``self``, ``*args`` and
``**kwargs`` excluded) or an ``init`` field of a dataclass or
``NamedTuple``; a class without either inherits its first package
base's options, and a dataclass prepends its package bases' fields.
Classes come from ``<root>/src``.  Call sites come from every ``.py``
file under ``<root>/src``, ``perfbench``, ``benchmarks``, ``examples``
and ``tests``: a call ``Name(...)`` or ``module.Name(...)`` sets the
options it passes by keyword or by position.  Calls are matched by the
class's bare name, so two classes sharing a name share their call sites;
calls through ``cls(...)``, ``super().__init__`` or ``**kwargs`` are not
seen.

    python tools/constructor_options.py                 # every class
    python tools/constructor_options.py LiteForm CacheModel
    python tools/constructor_options.py --test-only     # set only in tests

Each option prints with the areas that set it (``-`` when none does),
and the last line is the option total over the listed classes.  A named
class that does not exist lists with no options, so one command line
gives comparable totals before and after a class is removed.
"""

from __future__ import annotations

import argparse
import ast
import sys
from dataclasses import dataclass, field
from pathlib import Path

#: Directories scanned for call sites, in report order.
AREAS = ("src", "perfbench", "benchmarks", "examples", "tests")


@dataclass
class ClassInfo:
    name: str
    qualname: str
    node: ast.ClassDef | None
    options: list[str] = field(default_factory=list)
    #: option -> areas whose calls set it
    set_in: dict[str, set[str]] = field(default_factory=dict)


def _decorator_name(node: ast.expr) -> str:
    if isinstance(node, ast.Call):
        node = node.func
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def _base_names(node: ast.ClassDef) -> list[str]:
    return [_decorator_name(b) for b in node.bases]


def _is_record(node: ast.ClassDef) -> bool:
    """A dataclass (generating its ``__init__``) or a ``NamedTuple``."""
    for dec in node.decorator_list:
        if _decorator_name(dec) == "dataclass":
            return not any(
                kw.arg == "init" and isinstance(kw.value, ast.Constant) and not kw.value.value
                for kw in getattr(dec, "keywords", ())
            )
    return "NamedTuple" in _base_names(node)


def _init_params(node: ast.ClassDef) -> list[str] | None:
    for stmt in node.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__":
            a = stmt.args
            return [p.arg for p in (*a.posonlyargs, *a.args)][1:] + [
                p.arg for p in a.kwonlyargs
            ]
    return None


def _own_fields(node: ast.ClassDef) -> list[str]:
    out = []
    for stmt in node.body:
        if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
            continue
        if "ClassVar" in ast.unparse(stmt.annotation):
            continue
        value = stmt.value
        if isinstance(value, ast.Call) and _decorator_name(value) == "field" and any(
            kw.arg == "init" and isinstance(kw.value, ast.Constant) and not kw.value.value
            for kw in value.keywords
        ):
            continue
        out.append(stmt.target.id)
    return out


def scan_classes(src: Path) -> dict[str, list[ClassInfo]]:
    """Every class under ``src``, by bare name, options resolved."""
    by_name: dict[str, list[ClassInfo]] = {}
    for path in sorted(src.rglob("*.py")):
        module = ".".join(path.relative_to(src).with_suffix("").parts)
        module = module.removesuffix(".__init__")
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                info = ClassInfo(node.name, f"{module}.{node.name}", node)
                by_name.setdefault(node.name, []).append(info)

    def resolve(info: ClassInfo, seen: frozenset = frozenset()) -> list[str]:
        bases = [
            by_name[b][0] for b in _base_names(info.node)
            if b in by_name and b not in seen
        ]
        inherited = [resolve(b, seen | {info.name}) for b in bases]
        params = _init_params(info.node)
        if params is not None:
            return params
        if _is_record(info.node):
            own = _own_fields(info.node)
            parents = [o for opts in inherited for o in opts if o not in own]
            return parents + own
        return inherited[0] if inherited else []

    for infos in by_name.values():
        for info in infos:
            info.options = resolve(info)
            info.set_in = {o: set() for o in info.options}
    return by_name


def scan_calls(root: Path, by_name: dict[str, list[ClassInfo]]) -> None:
    """Record in each class which areas' calls set which options."""
    for area in AREAS:
        base = root / area
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                name = _decorator_name(node.func)
                for info in by_name.get(name, ()):
                    passed = [kw.arg for kw in node.keywords if kw.arg]
                    positional = []
                    for arg in node.args:
                        if isinstance(arg, ast.Starred):
                            break
                        positional.append(arg)
                    passed += info.options[: len(positional)]
                    for option in passed:
                        if option in info.set_in:
                            info.set_in[option].add(area)


def report(classes: list[ClassInfo], test_only: bool) -> list[str]:
    if test_only:
        found = [
            (info, o) for info in classes for o in info.options
            if info.set_in[o] == {"tests"}
        ]
        lines = [f"{info.qualname}.{o}" for info, o in found]
        owners = {id(info) for info, _ in found}
        return lines + [f"{len(found)} test-only options in {len(owners)} classes"]
    lines = []
    for info in classes:
        lines.append(f"{info.qualname} ({len(info.options)})")
        for option in info.options:
            areas = [a for a in AREAS if a in info.set_in[option]]
            lines.append(f"    {option:28s} {','.join(areas) or '-'}")
    total = sum(len(info.options) for info in classes)
    return lines + [f"{total} options in {len(classes)} classes"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("classes", nargs="*", help="bare class names (default: all)")
    parser.add_argument("--root", default=Path(__file__).resolve().parents[1], type=Path,
                        help="repository root (default: this script's repository)")
    parser.add_argument("--test-only", action="store_true",
                        help="list only the options that no code outside tests sets")
    args = parser.parse_args(argv)
    by_name = scan_classes(args.root / "src")
    scan_calls(args.root, by_name)
    names = args.classes or sorted(by_name)
    classes = [
        info
        for n in names
        for info in by_name.get(n) or [ClassInfo(n, f"{n} (no such class)", None)]
        if args.classes or info.options
    ]
    print("\n".join(report(classes, args.test_only)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
