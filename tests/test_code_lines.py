"""The code-line counter of ``tools/code_lines.py``."""
from __future__ import annotations

import importlib.util
import pathlib
import subprocess
import sys

_TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"


def _counter():
    spec = importlib.util.spec_from_file_location("code_lines", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.code_lines


_FIXTURE = '''"""A module docstring
over two lines."""
import os

# a comment line


class Kind:
    """A class docstring."""

    size = 3  # a trailing comment


def joined(a,
           b):
    """A function docstring,
    over two lines."""
    text = """a string that
    is not a docstring"""
    return os.path.join(
        a, b, text,
    )
'''


def test_code_lines_skips_docstrings_comments_and_blanks():
    # import, class, size, the two lines of def, the two of the string
    # assignment and the three of the return: the docstrings, the comment
    # line and the blank lines count for nothing
    assert _counter()(_FIXTURE) == 10


def test_code_lines_prints_every_module_and_the_total():
    out = subprocess.run([sys.executable, str(_TOOL)], check=True, capture_output=True,
                         text=True).stdout.splitlines()
    modules = sorted(p.name for p in (_TOOL.parent.parent / "src" / "gammasig").glob("*.py"))
    assert [line.split()[0] for line in out] == modules + ["total"]
    counts = [int(line.split()[1]) for line in out]
    assert counts[-1] == sum(counts[:-1]) > 0
