"""Golden outputs: pinned digests and bit patterns recorded before any
refactoring of the numerics.

A structural change to the signature kernel, the bracket sums or the
accumulation must leave these bytes unchanged.  The sums accumulate in
``np.longdouble``, whose width depends on the platform (80-bit on x86-64
Linux, 64-bit on MSVC, 128-bit on aarch64 Linux), so a failure here on
another platform also flags cross-platform accumulation drift rather than
a code change.
"""
from __future__ import annotations

import hashlib
import json

import numpy as np

from gammasig import HestonParams, SimGrid, endpoint_signature_batch, simulate_heston
from gammasig.cli import main
from gammasig.models import path_rng

CALIBRATE_CONFIG = {"experiment": "cantor-calib", "grid": {"n": 200},
                    "samples": {"N_test": 3}}
CALIBRATE_SHA256 = {
    "fit_ito.json": "46fe060524909bf41de7dcbb1f4f57bc8d3278266dd794bf31c78e771cc83f57",
    "fit_strat.json": "1d72abd41b52544bd3ad50d1bc3299b672aad0f143fa539952395f92897f0385",
    "mse_summary.csv": "1eb069265a8186250916cb3443ecd06f42ec9b4819f41e799eb4ce0fc246f2b8",
    "trajectory.csv": "c6813b3e4a12ecdb620e8a5b7cf80e8749bc970021849ea48bd9260603c133e0",
}

# level 3 covers the intermediate-level trajectory of the batched kernel
PRICE_CONFIG = {"experiment": "heston2-pricing", "grid": {"n": 30},
                "signature": {"trunc_level": 3},
                "samples": {"N_train": 300, "N_test": 60, "N_MC": 200}}
PRICE_SHA256 = {
    "fit_ito.json": "58574a328bb51069267c33635c46bda0910705bade07e677933bdcff14b02588",
    "fit_strat.json": "c61d8912e7aab1d61c8042a1ed182b47878530b76eb1bb2ed6155ebefe2c618a",
    "mse_summary.csv": "6f134ac6b8b93e305f511f8fd444c45f715af26df683aefc120a77b68101b5fc",
    "prices.csv": "7495e6a1887064ea5886a6e4e53e0794035373103df3d9341c998c1471442e03",
}


def _stamped_digests(work_dir, command, payload, seed) -> dict[str, str]:
    work_dir.mkdir()
    cfg = work_dir / "config.json"
    cfg.write_text(json.dumps(payload))
    out = work_dir / "out"
    assert main([command, "--config", str(cfg), "--seed", str(seed),
                 "--out", str(out)]) == 0
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(out.iterdir())}


def _endpoint_bits() -> dict[float, list[str]]:
    z = np.stack([path_rng(5, i).standard_normal((50, 2)) for i in range(3)])
    values = np.concatenate([np.zeros((3, 1, 2)), np.cumsum(0.1 * z, axis=1)], axis=1)
    out = {}
    for gamma in (0.0, 0.5):
        ends = endpoint_signature_batch(values, gamma, 3)
        out[gamma] = [float(ends[0][1, 0]).hex(), float(ends[1][2, 1]).hex(),
                      float(ends[2][0, 5]).hex()]
    return out


def _heston_driver_bits() -> list[str]:
    params = HestonParams(s0=1.0, v0=0.08, mu=0.001, kappa=0.5, theta=0.15,
                          sigma=0.25, rho=-0.5)
    path = simulate_heston(params, SimGrid(1.0, 50, 3), 2)
    return [float(path.by_name(k)[-1]).hex() for k in ("W", "B", "W_Q", "B_Q")]


def test_golden_outputs_and_bits(tmp_path, capsys):
    assert _stamped_digests(tmp_path / "calibrate", "calibrate",
                            CALIBRATE_CONFIG, seed=1) == CALIBRATE_SHA256
    assert _stamped_digests(tmp_path / "price", "price",
                            PRICE_CONFIG, seed=1) == PRICE_SHA256
    capsys.readouterr()
    assert _endpoint_bits() == {
        0.0: ["0x1.4e5075dc02deap-1", "0x1.ab80de2bc16a7p-6", "0x1.5cf1a4052603ep-4"],
        0.5: ["0x1.4e5075dc02deap-1", "0x1.a67946ee4ae50p-5", "0x1.25c2895ad31cap-5"],
    }
    assert _heston_driver_bits() == [
        "-0x1.e562c5e8974fap-3", "-0x1.e56c1185f7332p-2",
        "-0x1.ddae8f8817947p-3", "0x1.be8e3d93d1412p-4"]
