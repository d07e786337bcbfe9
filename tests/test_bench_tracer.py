"""The benchmark's tracer wraps gammasig attributes by name; every name it
wraps must still exist, or a traced benchmark run fails."""
from __future__ import annotations

import importlib.util
import pathlib

import gammasig
import gammasig.cli  # noqa: F401  (entry_points reads gammasig.cli)

TRACER = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_entry_points_resolve():
    rows = load_tracer().entry_points(gammasig)
    assert rows
    for owner, attr, layer, _ in rows:
        assert attr in vars(owner), f"{owner.__name__}.{attr} ({layer}) is gone"
