"""The benchmark's tracer wraps gammasig attributes by name; every name it
wraps must still exist and still be called, or a traced benchmark run fails
or reports a layer metric that has silently lost its meaning."""
from __future__ import annotations

import dataclasses
import importlib.util
import json
import pathlib

import pytest

import gammasig
import gammasig.cli  # noqa: F401  (entry_points reads gammasig.cli)
from gammasig.experiments import default_config, run_pricing
from gammasig.models import Heston2Params

TRACER = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"

#: Tiny runs of every calibration and pricing experiment.
TINY_RUNS = [
    ("calibrate", {"experiment": "heston-calib", "grid": {"n": 20},
                   "samples": {"N_test": 2}}),
    ("calibrate", {"experiment": "cantor-calib", "grid": {"n": 20},
                   "samples": {"N_test": 2}}),
    ("price", {"experiment": "heston2-pricing", "grid": {"n": 10},
               "samples": {"N_train": 20, "N_test": 5, "N_MC": 5}}),
    ("price", {"experiment": "cantor2-pricing", "grid": {"n": 10},
               "samples": {"N_train": 20, "N_test": 5, "N_MC": 5}}),
]


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


def test_tracer_entry_points_are_called(tmp_path, capsys):
    module = load_tracer()
    tracer = module.Tracer()
    tracer.install(gammasig)
    try:
        for i, (command, payload) in enumerate(TINY_RUNS):
            cfg = tmp_path / f"c{i}.json"
            cfg.write_text(json.dumps(payload))
            assert gammasig.cli.main([command, "--config", str(cfg)]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    spans = tmp_path / "spans.jsonl"
    tracer.write_spans(str(spans), {})
    lines = spans.read_text().splitlines()
    entry_col = module.SPAN_FIELDS.index("entry")
    hit = {json.loads(line)[entry_col] for line in lines[1:]}
    entries = json.loads(lines[0])["entries"]
    assert len(entries) == len(module.entry_points(gammasig))
    missed = [name for i, name in enumerate(entries) if i not in hit]
    assert not missed, f"wrapped but never called: {missed}"


def _rejecting_pricing_models():
    """Pricing models whose coarse Euler steps drive some prices to or below
    zero: Heston assets at v0 = theta = 2, Cantor assets with linear vol 1.2."""
    h = default_config("heston2-pricing").model
    hot = {"v0": 2.0, "theta": 2.0}
    c = default_config("cantor2-pricing").model
    return [
        ("heston2-pricing", Heston2Params(dataclasses.replace(h.asset1, **hot),
                                          dataclasses.replace(h.asset2, **hot), h.corr4)),
        ("cantor2-pricing", dataclasses.replace(c, nu=(1.2, 1.2))),
    ]


@pytest.mark.parametrize("experiment, model", _rejecting_pricing_models(),
                         ids=["heston2-pricing", "cantor2-pricing"])
def test_tracer_rejected_paths_match_report(experiment, model):
    config = default_config(experiment, model=model, grid_n=10,
                            n_train=40, n_test=10, n_mc=10)
    tracer = load_tracer().Tracer()
    tracer.install(gammasig)
    try:
        report = run_pricing(config)
    finally:
        tracer.uninstall()
    assert report["rejected_paths"] > 0
    assert tracer.counts["models.rejected_paths"] == report["rejected_paths"]


@pytest.mark.parametrize("experiment", ["heston2-pricing", "cantor2-pricing"])
def test_tracer_counters_keep_their_meaning(tmp_path, capsys, experiment):
    # the tracer reads the shapes at the entry points it wraps: the paths
    # and steps of _stack_draws, (B, n+1, L) from the values of
    # endpoint_signature_batch; 30 paths of 10 steps give two level-2 passes
    # over (t, x1, x2, [1,1], [1,2], [2,2]) and (t, x1, x2)
    command, payload = next((c, p) for c, p in TINY_RUNS if p["experiment"] == experiment)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(payload))
    tracer = load_tracer().Tracer()
    tracer.install(gammasig)
    try:
        assert gammasig.cli.main([command, "--config", str(cfg)]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert tracer.counts["signature.rows"] == 60
    assert tracer.counts["signature.coeffs"] == 30 * (11 * 6 + 6 ** 2) + 30 * (11 * 3 + 3 ** 2)
    assert tracer.counts["signature.coeffs"] == 4320
    assert tracer.counts["models.path_steps"] == 300
