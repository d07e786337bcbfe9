"""Seeded fuzz of the runs themselves at tiny sizes: model parameters,
``alpha``, ``trunc_level``, grid and sample sizes are drawn, and every run
either writes finite stamped numbers (exit 0) or names its cause (exit 2).
Neither a traceback nor a numpy ``RuntimeWarning`` may escape.

Unlike ``tests/test_config_fuzz.py`` nothing is stubbed: each draw is a full
``gammasig calibrate`` or ``gammasig price`` run, so degenerate data
(overflowing prices, rejected paths, singular Grams, solver corner cases)
reaches the numerics.
"""
from __future__ import annotations

import json
import math
import random
import warnings

from gammasig.cli import main

DRAWS = 150
ALPHAS = (0.0, 1e-8, 1e-3, 1.0, 100.0)


def _heston(rng: random.Random) -> dict:
    return {"s0": rng.uniform(0.5, 100.0), "v0": rng.uniform(0.0, 5.0),
            "theta": rng.uniform(0.0, 2.0), "kappa": rng.uniform(0.0, 10.0),
            "sigma": rng.uniform(0.0, 3.0), "mu": rng.uniform(-10.0, 10.0),
            "rho": rng.choice([-1.0, 1.0, rng.uniform(-1.0, 1.0)])}


def _draw(rng: random.Random) -> tuple[str, dict]:
    """(CLI command, config) of one draw.  The reference configs fix the
    Cantor diffusion: ``tanh`` for the calibration, ``linear`` for pricing."""
    experiment = rng.choice(["heston-calib", "cantor-calib",
                             "heston2-pricing", "cantor2-pricing"])
    payload = {"experiment": experiment, "grid": {"n": rng.randint(2, 10)},
               "regression": {"alpha": rng.choice(ALPHAS)},
               "signature": {"trunc_level": rng.randint(1, 3)}}
    if experiment.endswith("calib"):
        payload["samples"] = {"N_test": rng.randint(1, 20)}
        payload["model"] = (_heston(rng) if experiment == "heston-calib"
                            else {"s0": [rng.uniform(-2.0, 2.0)]})
        return "calibrate", payload
    payload["samples"] = {key: rng.randint(1, 20) for key in ("N_train", "N_test", "N_MC")}
    payload["model"] = (
        {"asset1": _heston(rng), "asset2": _heston(rng)}
        if experiment == "heston2-pricing"
        else {"s0": [rng.uniform(1.0, 100.0) for _ in range(2)],
              "nu": [rng.uniform(0.0, 3.0) for _ in range(2)],
              "rho": rng.uniform(-1.0, 1.0)})
    return "price", payload


def _numbers(node):
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        for child in node:
            yield from _numbers(child)
    elif isinstance(node, float):
        yield node


def _non_finite_stamps(out_dir) -> list[str]:
    """Files under ``out_dir`` with a stamped number that is not finite."""
    bad = []
    for path in sorted(out_dir.iterdir()):
        text = path.read_text()
        if path.suffix == ".json":
            values = list(_numbers(json.loads(text)))
        else:
            values = []
            for line in text.splitlines()[2:]:  # stamp and column names
                for field in line.split(","):
                    try:
                        values.append(float(field))
                    except ValueError:
                        pass  # a payoff or scheme label
        if not all(math.isfinite(v) for v in values):
            bad.append(path.name)
    return bad


def test_tiny_runs_exit_0_with_finite_stamps_or_2(tmp_path, capsys):
    rng = random.Random(0)
    codes = {0: 0, 2: 0}
    for k in range(DRAWS):
        command, payload = _draw(rng)
        config = tmp_path / "c.json"
        config.write_text(json.dumps(payload))
        out_dir = tmp_path / f"out{k}"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([command, "--config", str(config), "--out", str(out_dir)])
        err = capsys.readouterr().err
        case = f"draw {k}: {json.dumps(payload)}"
        assert code in codes, case
        assert not caught, (case, [str(w.message) for w in caught])
        assert "Traceback" not in err and "RuntimeWarning" not in err, (case, err)
        if code == 0:
            assert _non_finite_stamps(out_dir) == [], case
        codes[code] += 1
    # both outcomes are exercised
    assert min(codes.values()) >= DRAWS // 5, codes
