"""The code-line count of ``tools/code_lines.py``, the size metric."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

# a comment
import os  # a trailing comment


def f(x):
    """Function docstring."""

    # another comment
    return (x +
            1)


class C:
    """Class docstring."""
    name = "a string that is not a docstring"
'''


def test_counts_only_code_lines():
    # import, def, the two lines of the return, class, and the assignment
    assert code_lines.code_lines(SOURCE) == 6


def test_module_lines_sum_to_the_total(capsys):
    code_lines.main()
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    *modules, (label, total) = rows
    assert label == "total"
    assert {name for name, _ in modules} == {p.stem for p in code_lines.SRC.glob("*.py")}
    assert sum(int(count) for _, count in modules) == int(total)
