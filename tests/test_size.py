"""The size of the package, counted one way.

A code line of a module is a line that holds a token of code: not blank,
not only a comment, and not part of a module, class or function docstring.
A string that is not a docstring is code, every line of it.  This is the
figure a simplification cites.
To print each module's count and the total:

    PYTHONPATH=src python tests/test_size.py
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "nnprune"

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}


def code_lines(source: str) -> int:
    """Lines of ``source`` that hold code (see the module docstring)."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def test_code_lines_leave_out_docstrings_comments_and_blanks():
    source = '''"""Module
docstring."""
# a comment

X = """a string,
not a docstring"""


class A:
    """Class docstring."""

    def f(self, x):  # a trailing comment
        """Function
        docstring."""
        return (x +
                1)
'''
    # X's two lines, class A, def f, and the return's two lines
    assert code_lines(source) == 6


if __name__ == "__main__":
    total = 0
    for path in sorted(SRC.glob("*.py")):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n:>6}  {path.name}")
    print(f"{total:>6}  total")
