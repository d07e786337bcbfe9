"""Golden outputs: pinned digests and bit patterns recorded before any
refactoring of the numerics.

A structural change to the signature kernel, the bracket sums or the
accumulation must leave these bytes unchanged.  The stamped digests were
re-recorded once, when the lasso changed from cyclic coordinate descent
stopped at a sweep tolerance to the exact active-set solution (the
calibration fits moved to the optimum) and both regressions changed from
LAPACK's Cholesky to the numpy one in ``regress`` (the pricing ridge fits
moved at rounding level, at most 3e-12 relative in ``prices.csv``).  The
pricing ``fit_strat.json``, ``mse_summary.csv`` and ``prices.csv`` were
re-recorded once more when the pricing features became column subsets of
one joint end-point pass per scheme: the two-asset mid-point block used to
be contracted from a driver whose memory layout (a fancy-indexed,
concatenated array) set a different summation order, so it moved at
roundoff (at most 9e-14 relative in ``prices.csv``); every left-point and
single-asset block is bit-equal.  The calibration ``trajectory.csv`` and
the Heston ``mse_summary.csv`` were re-recorded when the test paths began
to pair one folded functional, its top level contracted before the running
sum instead of formed and paired after it (out-of-sample predictions moved
at roundoff); every ``fit_*.json`` is bit-equal.  The sums accumulate in
``np.longdouble``, whose width depends on the platform (80-bit on x86-64
Linux, 64-bit on MSVC, 128-bit on aarch64 Linux), so a failure here on
another platform also flags cross-platform accumulation drift rather than
a code change.
"""
from __future__ import annotations

import hashlib
import json

import numpy as np

from gammasig import HestonParams, SimGrid, endpoint_signature_batch, simulate_heston_batch
from gammasig.cli import main
from gammasig.models import path_rng

CALIBRATE_CONFIG = {"experiment": "cantor-calib", "grid": {"n": 200},
                    "samples": {"N_test": 3}}
CALIBRATE_SHA256 = {
    "fit_ito.json": "09ec1c1113a8822f257a0fdfbc3fedd5062a6b12929c6945d93f458a9c9e7b2f",
    "fit_strat.json": "db80150550af9c7708e79742cdca780a17501c5126d8d930d2c4a1a588724284",
    "mse_summary.csv": "7fc2658b2891be90f063576ccb1723f7b6241f7997a5f88fb1f09846f2497e52",
    "trajectory.csv": "05061e117f72d70ad863569cba0a1c525d564ccebf58df9460386620c0c72bb8",
}

# the only experiment with multi-term (rho-corrected) functionals: pins the
# multi-term pairing of functional_matrix and the Heston S/V Euler output
HESTON_CALIBRATE_CONFIG = {"experiment": "heston-calib", "grid": {"n": 100},
                           "samples": {"N_test": 3}}
HESTON_CALIBRATE_SHA256 = {
    "fit_ito.json": "bd4ddb920960ac53e67ffb741a20ed2f052418714cf07185f3350f53d1c15846",
    "fit_strat.json": "140817134f28cb75ada63eb0ccdf09155e161cc3899745747c890a95316beed1",
    "mse_summary.csv": "1d05b221049927a238b3268194f66239f635ac0dff1a4c9b216686d75e00036b",
    "trajectory.csv": "7ed09caa832b37bfdadb137491e41be565cbe998a4f3d0903bc315563be84a6f",
}

# level 3 covers the intermediate-level trajectory of the batched kernel
PRICE_CONFIG = {"experiment": "heston2-pricing", "grid": {"n": 30},
                "signature": {"trunc_level": 3},
                "samples": {"N_train": 300, "N_test": 60, "N_MC": 200}}
PRICE_SHA256 = {
    "fit_ito.json": "a0d6fad325b69ccc8969d26c8b4b08e49aa1b47b82f56edcb8b34d160729cf6d",
    "fit_strat.json": "e3cd14cf12f00e683b13d6691480555179c7b80aa89e87e1c53a6ae81fe61962",
    "mse_summary.csv": "3af90e280b9ec247cfb1939766cf2c290201e30f84dba0e0fc4742ecb1066afb",
    "prices.csv": "26d638a05dc133fea83486db6b6618097d517976b0fc227c148751366b1aed2e",
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
    path = simulate_heston_batch(params, SimGrid(1.0, 50, 3), [2])
    return [float(path[k][0][-1]).hex() for k in ("W", "B", "W_Q", "B_Q")]


def test_golden_outputs_and_bits(tmp_path, capsys):
    assert _stamped_digests(tmp_path / "calibrate", "calibrate",
                            CALIBRATE_CONFIG, seed=1) == CALIBRATE_SHA256
    assert _stamped_digests(tmp_path / "price", "price",
                            PRICE_CONFIG, seed=1) == PRICE_SHA256
    assert _stamped_digests(tmp_path / "heston", "calibrate",
                            HESTON_CALIBRATE_CONFIG, seed=0) == HESTON_CALIBRATE_SHA256
    capsys.readouterr()
    assert _endpoint_bits() == {
        0.0: ["0x1.4e5075dc02deap-1", "0x1.ab80de2bc16a7p-6", "0x1.5cf1a4052603ep-4"],
        0.5: ["0x1.4e5075dc02deap-1", "0x1.a67946ee4ae50p-5", "0x1.25c2895ad31cap-5"],
    }
    assert _heston_driver_bits() == [
        "-0x1.e562c5e8974fap-3", "-0x1.e56c1185f7332p-2",
        "-0x1.ddae8f8817947p-3", "0x1.be8e3d93d1412p-4"]
