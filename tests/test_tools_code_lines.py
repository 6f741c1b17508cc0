"""``tools/code_lines.py``: what counts as a code line."""

import importlib.util
import textwrap
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)


def _count(source: str) -> int:
    return code_lines.code_lines(textwrap.dedent(source))


def test_docstrings_are_not_counted():
    source = '''
        """Module docstring
        over two lines."""


        class Shard:
            """Class docstring."""

            def serve(self):
                """Function docstring
                over two lines.
                """
                return 1


        async def drain():
            """Async function docstring."""
            return 2
    '''
    # class, def, return, async def, return
    assert _count(source) == 5


def test_comment_only_and_blank_lines_are_not_counted():
    source = """
        # a comment


        x = 1  # a trailing comment counts as its code line
            # an indented comment
        y = 2
    """
    assert _count(source) == 2


def test_multi_line_call_counts_every_line_it_spans():
    source = """
        total = sum(
            [
                1,
                2,
            ]
        )
    """
    assert _count(source) == 6


def test_multi_line_non_docstring_string_counts_every_line():
    source = '''
        def report():
            """Docstring."""
            text = """first
        second
        third"""
            return text
    '''
    # def, the three lines of the string, return
    assert _count(source) == 5


def test_total_prints_one_integer(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\ny = 2\n")
    (tmp_path / "b.py").write_text('"""Doc."""\n\nz = 3\n')
    assert code_lines.main(["--total", str(tmp_path)]) == 0
    assert capsys.readouterr().out == "3\n"
