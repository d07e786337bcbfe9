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
at roundoff); every ``fit_*.json`` is bit-equal.  Every calibration digest
and the pricing ``fit_ito.json``, ``mse_summary.csv`` and ``prices.csv``
were re-recorded when signature level 1 became the difference ``X - X_0``
instead of the extended-precision running sum of the re-differenced steps,
and the level-2 step began to read its gamma-points from the path as
``(X - X_0)_k + gamma * dX_k``: level 1 is now correctly rounded, so it and
every level built on it moved at roundoff (the lasso coefficients by at
most 1.2e-10 relative to the largest, with the same active sets; at most
3e-13 relative in ``prices.csv`` at benchmark size).  The pricing
``fit_strat.json``, the three coordinates of ``_endpoint_bits`` and
``_heston_driver_bits`` did not move.  The calibration ``trajectory.csv``
and the Heston ``mse_summary.csv`` were re-recorded once more when the test
paths began to carry each level below the top only through the columns the
pairing and the level above read (``S^m @ R_m``), projected before the
running sum instead of after it (out-of-sample predictions moved at
roundoff); every ``fit_*.json`` is bit-equal.  Every calibration digest
was re-recorded when the lasso began to follow its homotopy path instead of
feature-sign search: the fits keep their active sets, and their
coefficients moved at roundoff (at most 6e-12 relative to the largest) and
their ``n_iter`` counts changed.  The calibration ``trajectory.csv`` and
the Heston ``mse_summary.csv`` were re-recorded once more when the test
paths' pairings stopped using small BLAS products, whose summation order
BLAS picks from the operands' shapes, and began to add each row's weighted
terms elementwise in row order, with the levels walked along the grid in
windows (out-of-sample predictions moved at roundoff, at most 7e-15
relative over a benchmark-size calibration round); every ``fit_*.json``,
every pricing digest and the ``gamma_signature`` level digests, recorded
before that change, are bit-equal.  The sums accumulate in
``np.longdouble``, whose width depends on the platform (80-bit on x86-64
Linux, 64-bit on MSVC, 128-bit on aarch64 Linux), so a failure here on
another platform also flags cross-platform accumulation drift rather than
a code change.
"""
from __future__ import annotations

import hashlib
import json
import multiprocessing

import numpy as np

import pytest

from gammasig import (
    Alphabet,
    HestonParams,
    SamplePath,
    SimGrid,
    endpoint_signature_batch,
    gamma_signature,
    heston_drivers,
    simulate_heston_batch,
)
from gammasig import experiments, signature
from gammasig.cli import main
from gammasig.models import path_rng

CALIBRATE_CONFIG = {"experiment": "cantor-calib", "grid": {"n": 200},
                    "samples": {"N_test": 3}}
CALIBRATE_SHA256 = {
    "fit_ito.json": "bc0ea15e8e0f0ba3b20af94c6a51ffb0c7db0a72dac6aa45c9caa491e59afa13",
    "fit_strat.json": "ad8950de583141032facb9e09ba72a7757d0df204d2e0c6f41da91bb7f2f6538",
    "mse_summary.csv": "2bff5d0a3db1ce313e11f53bffc7349e75eb6fa5a595f7e0791e5c57bb64466a",
    "trajectory.csv": "9a7726c1b2b498f13defeddcf8fd1e8c2a6e125463c7eb05d95b1f992cf535f7",
}

# the only experiment with multi-term (rho-corrected) functionals: pins the
# multi-term pairing of functional_matrix and the Heston S/V Euler output
HESTON_CALIBRATE_CONFIG = {"experiment": "heston-calib", "grid": {"n": 100},
                           "samples": {"N_test": 3}}
HESTON_CALIBRATE_SHA256 = {
    "fit_ito.json": "5129beda0fd0df54f3583fe27d9ccd0c543f2c3dd7aa91ac2798da024a373153",
    "fit_strat.json": "aa43c37897b01b52f572aa8fbec7d64134923608d651c53e18ae7a29cddff305",
    "mse_summary.csv": "0370b717d782bce7a0cc664a98a919dfa4898319456bbd28a179189f88e8b5a2",
    "trajectory.csv": "54d9ffd50d8c6a640053b325e6a0c9e5e058cc75763f01ac47c4c3dbd5e4777d",
}

# level 3 covers the intermediate-level trajectory of the batched kernel
PRICE_CONFIG = {"experiment": "heston2-pricing", "grid": {"n": 30},
                "signature": {"trunc_level": 3},
                "samples": {"N_train": 300, "N_test": 60, "N_MC": 200}}
PRICE_SHA256 = {
    "fit_ito.json": "358183309cddcd1cbe9250e18c6e9a023fe204d3b045eadf510166afdbbeff0e",
    "fit_strat.json": "e3cd14cf12f00e683b13d6691480555179c7b80aa89e87e1c53a6ae81fe61962",
    "mse_summary.csv": "01f5d03c4760188cabc6b9830d0e76311fa3c89e606c3737cdd654c6a884f710",
    "prices.csv": "20c42710c58401e4541ada16822681d63547ee19e5f18eb81a705d20898e5624",
}

# the Cantor-clock two-asset Euler loop and its correlated increments
CANTOR_PRICE_CONFIG = dict(PRICE_CONFIG, experiment="cantor2-pricing")
CANTOR_PRICE_SHA256 = {
    "fit_ito.json": "588b2755011bb8ef74144576867ea5c054a7b35e002d88645d03163bc9b7dffd",
    "fit_strat.json": "07c1b6bbf1096b6611292cd47c42d5b8751f0688e73979ef9159f7caa74a4ec0",
    "mse_summary.csv": "b765b77a657b177ccbb64fdf534f952f400d7aff38ec5bea82f849d1af12a0d6",
    "prices.csv": "71a8e94fbe7472e38ba2a97f2a2528615335e02579111805f4196d8cbeeb672c",
}

# the same level-3 Cantor pricing on the 252-step grid of the benchmark's
# price-deep workload: every level below the top is summed over the steps
# of the end-point pass, so a long grid pins the summation order of each
DEEP_PRICE_CONFIG = dict(CANTOR_PRICE_CONFIG, grid={"n": 252})
DEEP_PRICE_SHA256 = {
    "fit_ito.json": "e2d0034df9cbdf9bbedcf1e1b014eda19352bb14b136742dc540a98d16661914",
    "fit_strat.json": "7a9ef7ec07eb92c8e6735e3187099559d6b304ec630a73aed9ab8b8e77ef32dc",
    "mse_summary.csv": "35d465e1d25ee5182a6f639a8df516a238cdf3cdf4b2ce5f5340506fba61eb90",
    "prices.csv": "dc80326e51c94d89bb8bde1fde26761f6fa15255498b8dc56f1915fff9333aac",
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
    for gamma in (0.0, 0.5, 1.0):
        ends = endpoint_signature_batch(values, gamma, 3)
        out[gamma] = [float(ends[0][1, 0]).hex(), float(ends[1][2, 1]).hex(),
                      float(ends[2][0, 5]).hex()]
    return out


def _heston_driver_bits() -> list[str]:
    params = HestonParams(s0=1.0, v0=0.08, mu=0.001, kappa=0.5, theta=0.15,
                          sigma=0.25, rho=-0.5)
    path = simulate_heston_batch(params, SimGrid(1.0, 50, 3), [2])
    drivers = heston_drivers(path["S"], path["V"], params.sigma)
    return [float(drivers[k][0][-1]).hex() for k in ("W_Q", "B_Q")]


def test_golden_outputs_and_bits(tmp_path, capsys):
    assert _stamped_digests(tmp_path / "calibrate", "calibrate",
                            CALIBRATE_CONFIG, seed=1) == CALIBRATE_SHA256
    assert _stamped_digests(tmp_path / "price", "price",
                            PRICE_CONFIG, seed=1) == PRICE_SHA256
    assert _stamped_digests(tmp_path / "heston", "calibrate",
                            HESTON_CALIBRATE_CONFIG, seed=0) == HESTON_CALIBRATE_SHA256
    assert _stamped_digests(tmp_path / "cantor-price", "price",
                            CANTOR_PRICE_CONFIG, seed=1) == CANTOR_PRICE_SHA256
    assert _stamped_digests(tmp_path / "deep-price", "price",
                            DEEP_PRICE_CONFIG, seed=1) == DEEP_PRICE_SHA256
    capsys.readouterr()
    assert _endpoint_bits() == {
        0.0: ["0x1.4e5075dc02deap-1", "0x1.ab80de2bc16a7p-6", "0x1.5cf1a4052603ep-4"],
        0.5: ["0x1.4e5075dc02deap-1", "0x1.a67946ee4ae50p-5", "0x1.25c2895ad31cap-5"],
        1.0: ["0x1.4e5075dc02deap-1", "0x1.3b990f635a8a2p-4", "-0x1.69d1c8ecf1d0cp-7"],
    }
    assert _heston_driver_bits() == ["-0x1.ddae8f8817947p-3", "0x1.be8e3d93d1412p-4"]


def test_golden_outputs_independent_of_chunk_sizes(tmp_path, capsys, monkeypatch):
    # every batched kernel gives a path the bits of its own call, so the
    # stamped outputs do not depend on how the paths are chunked: 560
    # pricing paths in chunks of 13 and 3 calibration test paths in chunks
    # of 2 both end in a chunk of one path
    monkeypatch.setattr(experiments, "_PRICING_CHUNK", 13)
    monkeypatch.setattr(experiments, "_TEST_CHUNK", 2)
    assert _stamped_digests(tmp_path / "calibrate", "calibrate",
                            CALIBRATE_CONFIG, seed=1) == CALIBRATE_SHA256
    assert _stamped_digests(tmp_path / "price", "price",
                            PRICE_CONFIG, seed=1) == PRICE_SHA256
    assert _stamped_digests(tmp_path / "heston", "calibrate",
                            HESTON_CALIBRATE_CONFIG, seed=0) == HESTON_CALIBRATE_SHA256
    assert _stamped_digests(tmp_path / "cantor-price", "price",
                            CANTOR_PRICE_CONFIG, seed=1) == CANTOR_PRICE_SHA256
    assert _stamped_digests(tmp_path / "deep-price", "price",
                            DEEP_PRICE_CONFIG, seed=1) == DEEP_PRICE_SHA256
    capsys.readouterr()


@pytest.mark.parametrize("workers", [1, 2])
def test_golden_calibration_outputs_independent_of_workers(tmp_path, capsys, monkeypatch,
                                                           workers):
    # in chunks of 2, the 3 test paths of each calibration golden are two
    # runs on 2 workers, split at path 3 * 1 // 2, not on a chunk boundary:
    # the caller scores path 1 and a forked worker paths 2-3, each
    # simulating only its own paths into its own buffer, and no worker
    # outlives the run
    monkeypatch.setattr(experiments, "_TEST_CHUNK", 2)
    monkeypatch.setattr(experiments, "_workers", lambda: workers)
    simulated = []  # in this process only: (indices, into a buffer)

    def recording(real):
        def simulate(params, grid, indices, **kwargs):
            simulated.append((list(indices), "out" in kwargs))
            return real(params, grid, indices, **kwargs)
        return simulate

    for name in ("simulate_cantor_sde_batch", "simulate_heston_batch"):
        monkeypatch.setattr(experiments, name, recording(getattr(experiments, name)))
    assert _stamped_digests(tmp_path / "calibrate", "calibrate",
                            CALIBRATE_CONFIG, seed=1) == CALIBRATE_SHA256
    assert _stamped_digests(tmp_path / "heston", "calibrate",
                            HESTON_CALIBRATE_CONFIG, seed=0) == HESTON_CALIBRATE_SHA256
    assert simulated == [([0], False), ([1, 2, 3] if workers == 1 else [1], True)] * 2
    assert multiprocessing.active_children() == []
    capsys.readouterr()


@pytest.mark.parametrize("chunk, workers", [(13, 1), (13, 2), (13, 4), (600, 1), (600, 2)])
def test_golden_pricing_outputs_independent_of_workers(tmp_path, capsys, monkeypatch,
                                                       chunk, workers):
    # each process prices its own run of paths, in chunks counted from the
    # run's start, and the runs are joined in path order, so the stamped
    # outputs do not depend on the chunk size, on how many processes split
    # the paths or on which ends first; no worker outlives the run
    monkeypatch.setattr(experiments, "_PRICING_CHUNK", chunk)
    monkeypatch.setattr(experiments, "_workers", lambda: workers)
    assert _stamped_digests(tmp_path / "price", "price",
                            PRICE_CONFIG, seed=1) == PRICE_SHA256
    assert _stamped_digests(tmp_path / "cantor-price", "price",
                            CANTOR_PRICE_CONFIG, seed=1) == CANTOR_PRICE_SHA256
    assert _stamped_digests(tmp_path / "deep-price", "price",
                            DEEP_PRICE_CONFIG, seed=1) == DEEP_PRICE_SHA256
    assert multiprocessing.active_children() == []
    capsys.readouterr()


def _pin_values(case: str) -> tuple[np.ndarray, Alphabet]:
    """Path values (n+1, L) and alphabet of a pinned gamma_signature case."""
    rng = np.random.default_rng(20261019)
    if case == "brownian":
        return np.cumsum(rng.normal(size=(41, 2)), axis=0), Alphabet(2)
    if case == "augmented":
        t = np.linspace(0.0, 1.0, 26)
        x = np.cumsum(rng.normal(size=26))
        qv = np.concatenate([[0.0], np.cumsum(np.diff(x) ** 2)])
        return np.stack([t, x, qv], axis=1), Alphabet(1, has_time=True, has_brackets=True)
    if case == "constant-letter":
        # a constant letter and a falling integer letter: signed zeros in
        # every level from 2 up
        k = np.arange(13, dtype=float)
        return np.stack([np.full(13, 2.0), -k, np.sin(k)], axis=1), Alphabet(3)
    if case == "one-step":
        return rng.normal(size=(2, 2)), Alphabet(2)
    if case == "one-point":
        return rng.normal(size=(1, 2)), Alphabet(2)
    # a long grid: under a reduced window size it spans many windows
    return np.cumsum(0.1 * rng.normal(size=(301, 3)), axis=0), Alphabet(3)


# (case, gamma, trunc_level, window bytes or None) -> SHA-256 of the levels'
# bytes in order; recorded before the level recursion was windowed
GAMMA_SIGNATURE_PINS = {
    ("brownian", 0.0, 4, None):
        "1fe108fddcfc152e50977047cf8d08bc6aa0b378ab344cd12977d28442effa62",
    ("augmented", 0.25, 3, None):
        "31e9dce374d20e5e5e3a00528659876fafb09892a742bc27c814368c0b87aaac",
    ("constant-letter", 0.0, 4, None):
        "e8482331729aca6a83e43a83c12e84e3b24576537709b6ce23154d2ccde1d5cb",
    ("constant-letter", 0.25, 4, None):
        "3dc8322f7d17619bbb7499ad44b3c360e2afcf8fafd33094c3ec07bfae82f41c",
    ("constant-letter", 0.5, 4, None):
        "4cb0aa74fd34c2435182d81ea50ae8ffa4b8cfa08f4f8917a5e29ae2011dcb4c",
    ("constant-letter", 1.0, 4, None):
        "360b799b57b273d1ed5d4d76d2842b62bb85afca0f0aae67c5657fbe033c8ebf",
    ("one-step", 1.0, 4, None):
        "9196d7c659fedce31d32294cee6d60a948f757073dba3da72425fc8046b1c0dc",
    ("one-point", 0.5, 3, None):
        "b5fdab78d8947eacc864bfeecb4d2100780e5afe1cd8efafb124887913ac49fa",
    ("long", 0.25, 3, None):
        "b726c90e71480a0379a3ebeee2a6937489332f69b8e182105ba88cd2a9473d2e",
    ("long", 0.25, 3, 1000):
        "b726c90e71480a0379a3ebeee2a6937489332f69b8e182105ba88cd2a9473d2e",
    ("long", 1.0, 2, 100):
        "380203948bea0dc1e66ffb2cda559efd76eddeb7972b5bda5f65d1a054891a64",
}


@pytest.mark.parametrize("key", list(GAMMA_SIGNATURE_PINS), ids=str)
def test_gamma_signature_level_digests(monkeypatch, key):
    case, gamma, N, window_bytes = key
    if window_bytes is not None:
        monkeypatch.setattr(signature, "_WINDOW_BYTES", window_bytes, raising=False)
    values, alphabet = _pin_values(case)
    times = np.arange(len(values), dtype=float)
    traj = gamma_signature(SamplePath(times, values, alphabet), gamma, N)
    digest = hashlib.sha256()
    for level in traj.levels:
        digest.update(np.ascontiguousarray(level, dtype=np.float64).tobytes())
    assert digest.hexdigest() == GAMMA_SIGNATURE_PINS[key]


def _calibration_pairing_case(experiment: str, scheme: str, N: int) \
        -> tuple[np.ndarray, list]:
    """Test-path driver values (3, 41, L) and the folded fit of a
    calibration plan at level N, with a seeded coefficient on every second
    feature and zeros elsewhere, like a sparse lasso fit."""
    config = experiments.default_config(experiment, trunc_level=N, grid_n=80, n_test=3)
    plan = experiments._calibration_plans(config)[scheme]
    grid = config.test_grid()
    cols = experiments._simulate_calibration_columns(config, grid, range(1, 4))
    values = np.stack([plan.driver(grid.times, cols, b).values for b in range(3)])
    coeffs = np.random.default_rng(N).normal(size=len(plan.functionals))
    coeffs[1::2] = 0.0
    return values, [experiments._fold(coeffs, plan.functionals)]


#: (experiment, scheme, N) -> SHA-256 of the bytes of functional_paths at
#: gamma 0, 1/2 and 1 in turn, on the folded fit of
#: :func:`_calibration_pairing_case`; recorded before the carried levels
#: skipped the letters that their read matrices never read
CALIBRATION_PAIRING_PINS = {
    ("heston-calib", "strat", 2):
        "04f7844f83817f857a9c116f50bb199794c2801e0129e4307bbb1755c33c5164",
    ("heston-calib", "ito", 2):
        "30855aa694739017650ffce491b6b17510a37ee70801ebe5707b57b20ab7685b",
    ("heston-calib", "strat", 3):
        "f13afe45db6c3da8573c8716eb6bce945bd12bf0584ea2274fc7089fb0940f23",
    ("heston-calib", "ito", 3):
        "cb985fbad6cd16960cfd695cf957dc66fd1784de65378cbd5e4781b75b4fffad",
    ("cantor-calib", "strat", 2):
        "5276baa32c10fac1a45cc1db160148c0fde28b53b8d76117c8c46df2bcb87a4a",
    ("cantor-calib", "ito", 2):
        "f9c75176d5ad56851ad025b38c9b5cc53ab5d1bbe5cbb728d1ceef87906fe2de",
    ("cantor-calib", "strat", 3):
        "19f2957d1736635cfc355455bec033b61a1181c3a48915fdfa22cb775d36ffc3",
    ("cantor-calib", "ito", 3):
        "bb39974d9cc378e04ebbdf6129d3363758a1833b47f175939aa2a1af810596f4",
}


@pytest.mark.parametrize("steps", [1, 2, None], ids=["window1", "window2", "whole-grid"])
@pytest.mark.parametrize("key", list(CALIBRATION_PAIRING_PINS), ids=str)
def test_calibration_pairing_digests(monkeypatch, key, steps):
    # the level recursion walks the grid in windows of ``steps`` steps (None:
    # the whole grid in one), sized per call from its widest carried level
    real = signature._levels

    def levels(values, gamma, reads):
        n_plus_1, L, B = values.shape
        widest = max((L ** m if read is None else read.shape[1]
                      for m, read in enumerate(reads, 1)), default=L)
        K = steps or n_plus_1 - 1
        monkeypatch.setattr(signature, "_WINDOW_BYTES", 8 * B * widest * K)
        for start, dX, window in real(values, gamma, reads):
            assert len(dX) == min(K, n_plus_1 - 1 - start)
            yield start, dX, window

    monkeypatch.setattr(signature, "_levels", levels)
    values, ell = _calibration_pairing_case(*key)
    digest = hashlib.sha256()
    for gamma in (0.0, 0.5, 1.0):
        digest.update(np.ascontiguousarray(signature.functional_paths(values, gamma, ell))
                      .tobytes())
    assert digest.hexdigest() == CALIBRATION_PAIRING_PINS[key]
