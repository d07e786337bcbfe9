"""Seeded fuzz of the config contract: every perturbed config either runs
(exit 0) or is a configuration error (exit 2), never another exception.

The runners and the signature kernel are replaced by stubs, so a fuzzed
size such as ``grid.n = 2**64`` is parsed and validated but never computed.
"""
from __future__ import annotations

import json
import random

import pytest

from gammasig import Alphabet, SamplePath, signature, write_path_csv
from gammasig import cli
from gammasig import experiments
from gammasig.experiments import default_config

POOL = (True, 2.7, -1, float("nan"), float("inf"), "x", [], {}, None, 2 ** 64)

COMMANDS = {"heston-calib": "calibrate", "cantor-calib": "calibrate",
            "heston2-pricing": "price", "cantor2-pricing": "price",
            "check": "check"}


def _leaf_paths(node, prefix=()):
    """Every path into ``node``: objects, arrays and their leaves."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _leaf_paths(child, prefix + (key,))


def _perturbed(reference, path, value):
    data = json.loads(json.dumps(reference))
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return data


def _stub_runners(monkeypatch):
    calibration = {"config_hash": "0", "schemes": {
        s: {"in_sample_mse": 0.0, "out_sample_mse": 0.0} for s in ("strat", "ito")}}
    pricing = {"config_hash": "0", "rejected_paths": 0, "degenerate_corr_paths": 0,
               "payoffs": []}
    real_signature = signature.gamma_signature
    monkeypatch.setattr(cli, "run_calibration", lambda config: calibration)
    monkeypatch.setattr(cli, "run_pricing", lambda config: pricing)
    monkeypatch.setattr(cli, "run_checks", lambda config: {"passed": True, "modules": {}})
    monkeypatch.setattr(signature, "gamma_signature",
                        lambda path, gamma, trunc_level: real_signature(path, 0.0, 1))


def _cases(tmp_path):
    path_csv = str(tmp_path / "path.csv")
    write_path_csv(SamplePath([0.0, 0.5, 1.0], [0.0, 1.0, 3.0], Alphabet(1)), path_csv)
    sigdump = dict(cli._SIGDUMP_DEFAULTS, path_csv=path_csv)
    references = [(COMMANDS[e], json.loads(json.dumps(default_config(e).to_json_dict())))
                  for e in COMMANDS]
    references.append(("sigdump", sigdump))
    cases = [(command, _perturbed(ref, path, value))
             for command, ref in references
             for path in _leaf_paths(ref) for value in POOL]
    rng = random.Random(0)
    for _ in range(300):
        command, data = rng.choice(references)
        for _ in range(3):
            data = _perturbed(data, rng.choice(list(_leaf_paths(data))), rng.choice(POOL))
        cases.append((command, data))
    return cases


def test_fuzzed_configs_exit_0_or_2(tmp_path, monkeypatch, capsys):
    _stub_runners(monkeypatch)
    monkeypatch.chdir(tmp_path)
    target = tmp_path / "c.json"
    codes = {0: 0, 2: 0}
    for command, data in _cases(tmp_path):
        target.write_text(json.dumps(data))
        try:
            code = cli.main([command, "--config", str(target)])
        except Exception as exc:  # noqa: BLE001 - any escape is the failure
            pytest.fail(f"{command} {json.dumps(data)} raised {exc!r}")
        assert code in codes, (command, data, code)
        codes[code] += 1
        capsys.readouterr()
    # both outcomes occur, so neither the stubs nor the walk reject everything
    assert codes[0] > 0 and codes[2] > 0


def _nested(key: str, value) -> dict:
    """The JSON object that holds ``value`` at the dotted ``key``."""
    for part in reversed(key.split(".")):
        value = {part: value}
    return value


@pytest.mark.parametrize("experiment, key", [
    (experiment, key) for group, keys in experiments._FIXED
    for experiment in group for key in keys])
def test_fixed_key_takes_its_reference_value_only(tmp_path, monkeypatch, capsys,
                                                 experiment, key):
    # every (experiment, key) of the fixed-key table: the reference value
    # runs, another value exits 2 naming the key
    _stub_runners(monkeypatch)
    reference = default_config(experiment).to_json_dict()
    for part in key.split("."):
        reference = reference[part]
    other = "x" if reference is None else reference + (1 if type(reference) is int else 0.5)
    target = tmp_path / "c.json"
    for value, code in ((reference, 0), (other, 2)):
        target.write_text(json.dumps({"experiment": experiment, **_nested(key, value)}))
        assert cli.main([COMMANDS[experiment], "--config", str(target)]) == code, value
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
    assert f"{experiment} reads no '{key}'" in captured.err and not captured.out
