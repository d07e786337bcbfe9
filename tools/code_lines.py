"""Count the code lines of the ``src/gammasig`` modules.

A code line is a physical line that holds a token other than a comment, a
line break or an indentation change (by :mod:`tokenize`), and that is not a
line of a module, class or function docstring (by :mod:`ast`).  A statement
spread over several lines counts each of them; a blank line, a comment line
and every line of a docstring count for nothing.

Run it as::

    python3 tools/code_lines.py

It prints each module's count and the total.
"""
from __future__ import annotations

import ast
import io
import pathlib
import tokenize

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    """The lines of every module, class and function docstring of ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The code lines of the Python ``source``."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main() -> None:
    root = pathlib.Path(__file__).resolve().parent.parent
    total = 0
    for path in sorted((root / "src" / "gammasig").glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.name:<16}{count:>6}")
    print(f"{'total':<16}{total:>6}")


if __name__ == "__main__":
    main()
