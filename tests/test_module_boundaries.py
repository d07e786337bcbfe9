"""No module of the package reaches into another module's private names.

Each ``src/gammasig`` module is parsed, not imported: an import of a private
name from a sibling module (``from .x import _name``, ``from gammasig.x
import _name``) or an attribute ``x._name`` on a sibling module bound in the
module (``from . import x``, ``import gammasig.x as y``) fails the test.
Dunder names such as ``x.__name__`` are not private.
"""
from __future__ import annotations

import ast
import pathlib

import pytest

import gammasig

_PACKAGE = pathlib.Path(gammasig.__file__).parent
_MODULES = sorted(path.stem for path in _PACKAGE.glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _sibling(module: str | None, level: int, own: str) -> str | None:
    """The sibling module an import names, or None (the package itself, the
    module's own name or a module outside the package)."""
    if level:
        name = module
    elif module and module.startswith("gammasig."):
        name = module.split(".", 1)[1]
    else:
        return None
    return name if name in _MODULES and name != own else None


def _reaches(source: str, own: str) -> list[str]:
    """Every reach of module ``own`` into a sibling module's private names."""
    tree = ast.parse(source)
    bound: dict[str, str] = {}  # local name -> sibling module
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            target = _sibling(node.module, node.level, own)
            package = node.level or node.module == "gammasig"
            for alias in node.names:
                if target is not None and _private(alias.name):
                    found.append(f"line {node.lineno}: from {target} import {alias.name}")
                elif node.module in (None, "gammasig") and package \
                        and alias.name in _MODULES and alias.name != own:
                    bound[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                target = _sibling(alias.name, 0, own)
                if target is not None and alias.asname:
                    bound[alias.asname] = target
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            value = node.value
            if isinstance(value, ast.Name) and value.id in bound:
                found.append(f"line {node.lineno}: {bound[value.id]}.{node.attr}")
            elif isinstance(value, ast.Attribute) and isinstance(value.value, ast.Name) \
                    and value.value.id == "gammasig" and _sibling(
                        f"gammasig.{value.attr}", 0, own) is not None:
                found.append(f"line {node.lineno}: {value.attr}.{node.attr}")
    return found


@pytest.mark.parametrize("module", _MODULES)
def test_module_uses_no_private_name_of_another(module):
    source = (_PACKAGE / f"{module}.py").read_text(encoding="utf-8")
    assert _reaches(source, module) == []


def test_private_reaches_are_found():
    source = (
        "from .models import SimGrid, _stack_draws\n"
        "from gammasig.tensor import _infer_alphabet\n"
        "from . import signature as sig, regress\n"
        "import gammasig.payoffs as pay\n"
        "import gammasig.checks\n"
        "from ._private_helpers import thing\n"
        "def f():\n"
        "    from .experiments import _fold\n"
        "    return (sig._levels, regress._cholesky, pay._helper, regress.__name__,\n"
        "            gammasig.checks._run, sig.gamma_signature, _own_helper)\n"
    )
    assert _reaches(source, "cli") == [
        "line 1: from models import _stack_draws",
        "line 2: from tensor import _infer_alphabet",
        "line 8: from experiments import _fold",
        "line 9: signature._levels",
        "line 9: regress._cholesky",
        "line 9: payoffs._helper",
        "line 10: checks._run",
    ]
    # a module's own private names are its own business
    assert _reaches("from . import models\nmodels._stack_draws\n", "models") == []
