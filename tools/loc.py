"""Code lines of each ``src/billnet`` module and their total.

Usage, from the repository root::

    python3 tools/loc.py            # src/billnet/*.py
    python3 tools/loc.py a.py b.py  # any other files

A code line is a line that holds part of a token other than a comment or a
docstring; blank lines count for nothing.  A docstring is the string
literal that opens a module, class or function body.  A statement or
literal that spans several lines counts each line it covers.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "billnet"
_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    paths = [Path(a) for a in argv] or sorted(SRC.glob("*.py"))
    total = 0
    for path in paths:
        n = code_lines(path.read_text())
        total += n
        print(f"{n:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
