#!/usr/bin/env python
"""Count code lines: lines holding at least one real token.

Blank lines, comment-only lines and the lines of module, class and
function docstrings are not counted; every other line a token starts on
or spans (a multi-line call, a multi-line non-docstring string) is.  Used
to size refactors independently of comment and docstring churn:

    python tools/code_lines.py src/repro/serve src/repro/cli.py

Prints one line per file and a total; ``--total`` prints the total only.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def _docstring_starts(tree: ast.AST) -> set[tuple[int, int]]:
    """``(line, col)`` of every module/class/function docstring token."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0].value
            starts.add((doc.lineno, doc.col_offset))
    return starts


def code_lines(source: str) -> int:
    """Number of code lines in one Python source text."""
    docstrings = _docstring_starts(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def python_files(paths: list[str]) -> list[Path]:
    """Every ``.py`` file named by or under ``paths``, sorted."""
    out: list[Path] = []
    for p in map(Path, paths):
        out.extend(sorted(p.rglob("*.py")) if p.is_dir() else [p])
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+", help="files or directories")
    parser.add_argument("--total", action="store_true", help="print the total only")
    args = parser.parse_args(argv)
    total = 0
    for path in python_files(args.paths):
        n = code_lines(path.read_text())
        total += n
        if not args.total:
            print(f"{n:6d}  {path}")
    print(total if args.total else f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
