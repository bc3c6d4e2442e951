"""The code-line counter, on a small source string."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "loc.py"
spec = importlib.util.spec_from_file_location("loc", TOOL)
loc = importlib.util.module_from_spec(spec)
spec.loader.exec_module(loc)

SOURCE = '''"""A module docstring,
over two lines."""

import os  # a trailing comment leaves its line a code line


def f(a,
      b):
    """A function docstring."""
    # a comment line
    return (a +
            b)


x = """a string that is
not a docstring"""
'''


def test_code_lines_skip_docstrings_comments_and_blank_lines():
    # import, the two lines of def, the two of return, the two of x
    assert loc.code_lines(SOURCE) == 7
