"""tools/code_lines.py on a small synthetic module that pins its rule."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""A module docstring,
on two lines."""

import math  # a trailing comment: the line holds code

# a comment line


def area(r):
    """A function's docstring."""
    label = """a string literal
that is not a docstring"""
    return (math.pi
            * r * r), label


class Shape:
    """A class's docstring."""

    sides = 0
'''

# import, def, the literal's two lines, the return's two lines, class, sides
CODE_LINES = 8


def test_the_rule_counts_code_and_skips_docstrings_comments_and_blanks():
    assert code_lines.code_lines(SOURCE) == CODE_LINES


def test_the_report_lists_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "shapes.py").write_text(SOURCE)
    (tmp_path / "pkg" / "empty.py").write_text('"""Only a docstring."""\n\n# and a comment\n')
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "     0  pkg/empty.py",
        "     8  pkg/shapes.py",
        "     8  total",
    ]
