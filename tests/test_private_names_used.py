"""Every private name that a package module defines at its top level is
read somewhere in the package.

Each ``src/gammasig`` module is parsed, not imported.  A module-level
function, class or assignment target whose name is private (``_name``, not a
dunder) must be read, as a name or an attribute, somewhere in ``src/``
outside its own definition: a helper that outlives its last caller fails
the test, a recursive one too.  Tests do not count as readers.
"""
from __future__ import annotations

import ast
import pathlib

import gammasig

_PACKAGE = pathlib.Path(gammasig.__file__).parent


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _defined(node: ast.stmt) -> list[str]:
    """The private names that a module-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = [target.id for target in targets if isinstance(target, ast.Name)]
    else:
        names = []
    return [name for name in names if _private(name)]


def _read(node: ast.AST) -> set[str]:
    """Every name read under ``node``, as a name or as an attribute."""
    read = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and not isinstance(child.ctx, ast.Store):
            read.add(child.id)
        elif isinstance(child, ast.Attribute):
            read.add(child.attr)
    return read


def _unread(sources: dict[str, str]) -> list[str]:
    """``module:line name`` of every private definition that no other
    module-level statement of any module reads."""
    statements = [(module, node) for module, source in sources.items()
                  for node in ast.parse(source).body]
    reads = [_read(node) for _, node in statements]
    return [f"{module}:{node.lineno} {name}"
            for i, (module, node) in enumerate(statements) for name in _defined(node)
            if not any(name in read for j, read in enumerate(reads) if j != i)]


def test_every_private_definition_is_read():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(_PACKAGE.glob("*.py"))}
    assert _unread(sources) == []


def test_unread_private_definitions_are_found():
    sources = {
        "a": ("import numpy as _np\n"
              "_USED = 1\n_UNUSED: int = 2\n"
              "def _helper():\n    return _helper\n"
              "def _orphan():\n    return _USED\n"
              "class _Kind:\n    pass\n"
              "def public():\n    __dunder__ = 3\n    return _np\n"),
        "b": "from . import a\nvalue = a._Kind\n",
    }
    # a definition's reads of itself do not count, and only top-level
    # definitions do
    assert _unread(sources) == ["a:3 _UNUSED", "a:4 _helper", "a:6 _orphan"]
