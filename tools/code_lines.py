"""Count the code lines of each ``src/sibmatch`` module.

    python tools/code_lines.py

A code line is a physical line that holds a token other than a comment,
a newline, an indent or dedent, or a string literal that forms a whole
statement (a docstring).  So docstrings, comments and blank lines are
left out.  Prints one line per module, then the total.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "sibmatch"
SKIPPED = {
    tokenize.COMMENT, tokenize.NEWLINE, tokenize.NL, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def code_lines(source: str) -> int:
    """The number of code lines in the Python ``source``."""
    docstrings = {
        (node.lineno, node.col_offset)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    }
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in SKIPPED or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main() -> None:
    total = 0
    for path in sorted(SRC.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.stem:<12} {count:>5}")
    print(f"{'total':<12} {total:>5}")


if __name__ == "__main__":
    main()
