"""Tests for experiment configuration, runners, and their output files."""
from __future__ import annotations

import dataclasses
import json
import os
import signal
import threading
import time
import tracemalloc

import numpy as np
import pytest

from gammasig import (
    Alphabet,
    CantorParams,
    ExperimentConfig,
    PAYOFF_ORDER,
    RegressionFit,
    config_hash,
    default_config,
    enumerate_words,
    experiments,
    functional_matrix,
    functional_paths,
    gamma_signature,
    mse,
    predict,
    run_calibration,
    run_checks,
    run_pricing,
)
from gammasig.experiments import GAMMAS, SCHEMES
from gammasig.models import (
    cantor_function,
    heston_drivers,
    simulate_cantor_sde_batch,
    simulate_heston2_batch,
    simulate_heston_batch,
    simulation_values,
)
from gammasig.signature import bracket_columns, cumsum0
from conftest import assert_no_child_left

ALL_IDS = ("heston-calib", "cantor-calib", "heston2-pricing",
           "cantor2-pricing", "check")


# ---------------------------------------------------------------------------
# Config
# ---------------------------------------------------------------------------


def test_default_configs_round_trip():
    for exp in ALL_IDS:
        cfg = default_config(exp)
        back = ExperimentConfig.from_json_dict(cfg.to_json_dict())
        assert back == cfg, exp
        assert config_hash(back) == config_hash(cfg)


@pytest.mark.parametrize("experiment, digest", [
    ("heston-calib", "a9436680341d8ab2"), ("cantor-calib", "472b0a630bd65040"),
    ("heston2-pricing", "c540b565c90419e1"), ("cantor2-pricing", "b005795bad97e1c0"),
    ("check", "c4885ca21678d3fd")])
def test_reference_config_hashes(experiment, digest):
    assert config_hash(default_config(experiment)) == digest


@pytest.mark.parametrize("experiment, other", [
    ("heston-calib", "cantor-calib"), ("cantor-calib", "heston-calib"),
    ("heston2-pricing", "cantor2-pricing"), ("cantor2-pricing", "heston2-pricing")])
def test_model_of_another_experiment_type_is_rejected(experiment, other):
    # a model of the wrong type used to be accepted, and its JSON form did
    # not parse back (KeyError('asset1') for heston2-pricing)
    config = default_config(experiment)
    with pytest.raises(ValueError, match=f"{experiment} needs a .* 'model'"):
        dataclasses.replace(config, model=default_config(other).model)


#: For each attribute but the experiment: an experiment that reads it, and a
#: value other than that experiment's reference.
_CHANGED = {
    "model": ("cantor-calib", CantorParams(s0=(0.5,), vol_kind="tanh", cantor_depth=30)),
    "grid_T": ("heston-calib", 0.5), "grid_n": ("heston-calib", 100),
    "trunc_level": ("cantor-calib", 3), "alpha": ("heston2-pricing", 1e-3),
    "n_train": ("cantor2-pricing", 100), "n_test": ("heston-calib", 10),
    "n_mc": ("heston2-pricing", 50), "master_seed": ("check", 2 ** 64 - 1),
    "out_dir": ("check", "results"), "check_filter": ("check", "regress"),
    "inject_fault": ("check", "lasso-threshold"),
}


@pytest.mark.parametrize("key, attribute", experiments._KEYS)
def test_every_config_key_round_trips_a_changed_value(key, attribute):
    # a changed value sits at its JSON key and comes back through JSON text;
    # the experiment's changed values are the other experiments
    if attribute == "experiment":
        configs = [default_config(e) for e in ALL_IDS]
    else:
        experiment, value = _CHANGED[attribute]
        reference = default_config(experiment)
        configs = [dataclasses.replace(reference, **{attribute: value})]
        assert getattr(configs[0], attribute) != getattr(reference, attribute)
    for config in configs:
        data = json.loads(json.dumps(config.to_json_dict()))
        value = getattr(config, attribute)
        expected = dataclasses.asdict(value) if dataclasses.is_dataclass(value) else value
        at_key = data
        for part in key.split("."):
            at_key = at_key[part]
        assert at_key == json.loads(json.dumps(expected))
        assert ExperimentConfig.from_json_dict(data) == config


def test_config_keys_cover_every_field():
    assert ([attribute for _, attribute in experiments._KEYS]
            == [field.name for field in dataclasses.fields(ExperimentConfig)])
    assert set(_CHANGED) | {"experiment"} == {a for _, a in experiments._KEYS}


def test_config_validation():
    with pytest.raises(ValueError, match="unknown experiment"):
        default_config("heston3-pricing")
    base = default_config("cantor-calib")
    import dataclasses
    with pytest.raises(ValueError, match="model"):
        dataclasses.replace(base, model=None)
    with pytest.raises(ValueError):
        dataclasses.replace(base, trunc_level=0)
    with pytest.raises(ValueError):
        dataclasses.replace(base, alpha=-1.0)
    with pytest.raises(ValueError):
        dataclasses.replace(base, n_test=0)
    with pytest.raises(ValueError):
        dataclasses.replace(base, master_seed=-3)


def test_config_hash_scope():
    import dataclasses
    cfg = default_config("cantor-calib")
    assert config_hash(dataclasses.replace(cfg, out_dir="/tmp/anywhere")) == config_hash(cfg)
    assert config_hash(dataclasses.replace(cfg, master_seed=5)) != config_hash(cfg)
    assert dataclasses.replace(cfg, master_seed=5).master_seed == 5
    assert dataclasses.replace(cfg, out_dir="x").out_dir == "x"
    assert len(config_hash(cfg)) == 16


def test_config_grids():
    cfg = default_config("cantor-calib", master_seed=9, grid_n=100)
    grid = cfg.grid()
    assert (grid.T, grid.n, grid.master_seed) == (1.0, 100, 9)
    test = cfg.test_grid()
    assert (test.T, test.n) == (0.5, 50)
    assert test.dt == grid.dt


@pytest.mark.parametrize("workers", [1, 2])
def test_run_size_counts_the_pricing_chunks_in_flight(monkeypatch, workers):
    # under a bound between one and two chunk buffers (600 paths on 1000
    # steps, the driver block's 6(n+1) values per path, in which the
    # two-asset Heston simulator works: 28.8 MB each), a run on two
    # processes, one buffer in each, is too large to run, and the message
    # names the chunk buffers of the processes
    monkeypatch.setattr(experiments, "_workers", lambda: workers)
    monkeypatch.setattr(experiments, "_memory_bound", lambda: (50 * 10 ** 6, "of a test bound"))
    sizes = dict(grid_n=1000, n_train=1000, n_test=500, n_mc=500)
    assert 2 * experiments._PRICING_CHUNK < sum(sizes.values()) - sizes["grid_n"]
    if workers == 1:
        default_config("heston2-pricing", **sizes)
        return
    with pytest.raises(ValueError, match="too large to run with 'grid.n' 1000: the chunk "
                                         "buffers of the processes, 6006 x 1200"):
        default_config("heston2-pricing", **sizes)


def test_default_config_overrides():
    cfg = default_config("heston-calib", master_seed=3, grid_n=500, n_test=7)
    assert cfg.grid_n == 500 and cfg.n_test == 7 and cfg.master_seed == 3
    assert cfg.alpha == 1e-5 and cfg.regression_kind == "lasso"


# ---------------------------------------------------------------------------
# Calibration runner
# ---------------------------------------------------------------------------


def reduced_cantor_config(**overrides) -> ExperimentConfig:
    return default_config("cantor-calib", grid_n=120, n_test=3, **overrides)


def _allocated_paths(config, grid, indices) -> tuple[np.ndarray, np.ndarray]:
    """The prices S, (B, n+1), of the calibration paths ``indices`` of
    ``grid`` and their driver block (B, n+1, 3) of (t, W_Q, B_Q) or (t,
    W_C, C), built on the allocating route: the simulator's own arrays,
    then :func:`heston_drivers`, or :func:`cumsum0` and
    :func:`cantor_function`, each into new arrays."""
    if config.experiment == "heston-calib":
        paths = simulate_heston_batch(config.model, grid, indices)
        S = paths["S"]
        drivers = heston_drivers(S, paths["V"], config.model.sigma)
        columns = [drivers["W_Q"], drivers["B_Q"]]
    else:
        paths = simulate_cantor_sde_batch(config.model, grid, indices)
        S = paths["S"][:, :, 0]
        clock = cantor_function(grid.times, config.model.cantor_depth)
        columns = [cumsum0(paths["dW_C"][:, :, 0].T).T, np.broadcast_to(clock, S.shape)]
    return S, np.stack([np.broadcast_to(grid.times, S.shape), *columns], axis=2)


def test_run_calibration_report_structure():
    report = run_calibration(reduced_cantor_config())
    assert report["experiment"] == "cantor-calib"
    assert report["master_seed"] == 0
    assert set(report["schemes"]) == {"strat", "ito"}
    for entry in report["schemes"].values():
        assert entry["in_sample_mse"] >= 0.0
        assert entry["out_sample_mse"] >= 0.0
        assert entry["fit"]["objective_kind"] == "lasso-sum"
        assert len(entry["fit"]["words"]) == len(entry["fit"]["coeffs"])
    traj = report["trajectory"]
    # first test path lives on [0, T/2] with n//2 steps
    assert len(traj["t"]) == 61
    assert traj["t"][-1] == pytest.approx(0.5)
    assert set(traj) == {"t", "target", "pred_strat", "pred_ito"}


def test_run_calibration_deterministic():
    a = run_calibration(reduced_cantor_config())
    b = run_calibration(reduced_cantor_config())
    for scheme in ("strat", "ito"):
        assert a["schemes"][scheme]["out_sample_mse"] == \
            b["schemes"][scheme]["out_sample_mse"]
        assert a["schemes"][scheme]["fit"]["coeffs"] == \
            b["schemes"][scheme]["fit"]["coeffs"]
    c = run_calibration(reduced_cantor_config(master_seed=1))
    assert c["schemes"]["strat"]["out_sample_mse"] != \
        a["schemes"]["strat"]["out_sample_mse"]


def test_run_calibration_constant_target_is_exact():
    # zero diffusion -> S identically s0; the pinned intercept alone fits it
    cfg = reduced_cantor_config(
        model=CantorParams(s0=(2.0,), vol_kind="linear", nu=(0.0,)))
    report = run_calibration(cfg)
    for scheme in ("strat", "ito"):
        entry = report["schemes"][scheme]
        assert entry["in_sample_mse"] == 0.0
        assert entry["out_sample_mse"] == 0.0
        assert all(c == 0.0 for c in entry["fit"]["coeffs"])
        assert entry["fit"]["intercept"] == 2.0
    assert report["trajectory"]["target"] == [2.0] * 61


@pytest.mark.parametrize("experiment", ["heston-calib", "cantor-calib"])
def test_run_calibration_batches_equal_per_path_loop(experiment):
    # the test paths go through functional_paths on the folded functional in
    # chunks; one more chunk than fits evenly must give the bits of one call
    # per path, and agree with the materialized design of each path
    cfg = default_config(experiment, grid_n=40, n_test=experiments._TEST_CHUNK + 3)
    report = run_calibration(cfg)
    test_grid = cfg.test_grid()
    S, block = _allocated_paths(cfg, test_grid, range(1, cfg.n_test + 1))
    for scheme, plan in experiments._calibration_plans(cfg).items():
        stamped = report["schemes"][scheme]["fit"]
        fit = RegressionFit(plan.labels, stamped["coeffs"], stamped["intercept"],
                            stamped["alpha"], stamped["objective_kind"])
        ell = experiments._fold(fit.coeffs, plan.functionals)
        out_mses, design_mses = [], []
        for i in range(cfg.n_test):
            driver = plan.driver(test_grid.times, block[i])
            pred = fit.intercept + functional_paths(driver.values[None], GAMMAS[scheme],
                                                    [ell])[0, :, 0]
            out_mses.append(mse(pred, S[i]))
            traj = gamma_signature(driver, GAMMAS[scheme],
                                   plan.functionals[0].trunc_level)
            design = predict(fit, functional_matrix(traj, plan.functionals))
            assert np.all(np.abs(pred - design) <= 1e-12 * np.maximum(1.0, np.abs(design)))
            design_mses.append(mse(design, S[i]))
            if i == 0:
                assert report["trajectory"][f"pred_{scheme}"] == [float(v) for v in pred]
        out_mse = report["schemes"][scheme]["out_sample_mse"]
        assert np.float64(out_mse).view(np.uint64) == \
            np.float64(np.mean(out_mses)).view(np.uint64)
        assert out_mse == pytest.approx(float(np.mean(design_mses)), rel=1e-12)


def test_fold_skips_zero_coefficients():
    cfg = default_config("heston-calib", grid_n=20, n_test=2)
    plan = experiments._calibration_plans(cfg)["strat"]
    coeffs = np.zeros(len(plan.functionals))
    assert not experiments._fold(coeffs, plan.functionals)
    coeffs[[1, 4]] = (2.0, -0.5)
    assert experiments._fold(coeffs, plan.functionals) == \
        2.0 * plan.functionals[1] + (-0.5) * plan.functionals[4]


def _pairings_of_a_run(monkeypatch, cfg) -> tuple[dict, dict]:
    """The report of a calibration run and, per scheme, its folded fit and
    the test paths' driver values and pairings of each chunk."""
    calls: dict = {}
    real = experiments.functional_paths

    def recorded(values, gamma, ells):
        out = real(values, gamma, ells)
        scheme = next(s for s in SCHEMES if GAMMAS[s] == gamma)
        calls.setdefault(scheme, []).append((ells[0], np.array(values), out.copy()))
        return out

    monkeypatch.setattr(experiments, "functional_paths", recorded)
    return run_calibration(cfg), calls


@pytest.mark.parametrize("experiment", ["heston-calib", "cantor-calib"])
def test_run_calibration_selecting_no_word_predicts_the_intercept(monkeypatch, experiment):
    # at a penalty that zeroes every coefficient the folded fit is the zero
    # functional: every test pairing is +0.0, every prediction the pinned
    # intercept s0, and the out-of-sample MSE that of s0 against the targets
    cfg = default_config(experiment, grid_n=40, n_test=3, alpha=1e6)
    report, calls = _pairings_of_a_run(monkeypatch, cfg)
    s0 = cfg.model.s0 if experiment == "heston-calib" else cfg.model.s0[0]
    S, _ = _allocated_paths(cfg, cfg.test_grid(), range(1, cfg.n_test + 1))
    for scheme in SCHEMES:
        entry = report["schemes"][scheme]
        assert not any(entry["fit"]["coeffs"]) and entry["fit"]["intercept"] == s0
        [(ell, _, out)] = calls[scheme]
        assert not ell and out.shape == S.shape + (1,)
        assert np.array_equal(out.view(np.uint64), np.zeros_like(out).view(np.uint64))
        assert report["trajectory"][f"pred_{scheme}"] == [s0] * S.shape[1]
        assert entry["out_sample_mse"] == float(np.mean(mse(np.full_like(S, s0), S)))
        assert entry["out_sample_mse"] == pytest.approx(float(np.mean((s0 - S) ** 2)),
                                                        rel=1e-14)


def test_run_calibration_selecting_only_level_one_words(monkeypatch):
    # at this penalty both heston-calib fits keep only f_() = e_(1), so the
    # folded fit has top level 1 and no level above it is formed: each
    # pairing is beta * (W - W_0) of the driver letter 1, bit for bit
    cfg = default_config("heston-calib", grid_n=40, n_test=3, alpha=0.1)
    report, calls = _pairings_of_a_run(monkeypatch, cfg)
    for scheme in SCHEMES:
        fit = report["schemes"][scheme]["fit"]
        assert [w for w, c in zip(fit["words"], fit["coeffs"]) if c] == [""]
        [(ell, values, out)] = calls[scheme]
        assert ell.max_level() == 1 and list(ell.items()) == [((1,), fit["coeffs"][0])]
        increments = values[:, :, 1] - values[:, :1, 1]
        assert np.array_equal(out[..., 0], fit["coeffs"][0] * increments)


@pytest.mark.parametrize("experiment", ["heston-calib", "cantor-calib"])
def test_run_calibration_in_sample_mse_is_the_lasso_diagnostic(experiment):
    # the stamped in-sample MSE is the lasso's own, with the bits of scoring
    # the training design again, built from the allocating route
    cfg = default_config(experiment, grid_n=40, n_test=3)
    report = run_calibration(cfg)
    grid = cfg.grid()
    S, block = _allocated_paths(cfg, grid, [0])
    for scheme, plan in experiments._calibration_plans(cfg).items():
        stamped = report["schemes"][scheme]
        fit = RegressionFit(plan.labels, stamped["fit"]["coeffs"],
                            stamped["fit"]["intercept"], stamped["fit"]["alpha"],
                            stamped["fit"]["objective_kind"])
        traj = gamma_signature(plan.driver(grid.times, block[0]), GAMMAS[scheme],
                               plan.functionals[0].trunc_level)
        rescored = mse(predict(fit, functional_matrix(traj, plan.functionals)), S[0])
        assert stamped["in_sample_mse"] == stamped["fit"]["diagnostics"]["in_sample_mse"]
        assert np.float64(stamped["in_sample_mse"]).view(np.uint64) == \
            np.float64(rescored).view(np.uint64)


def test_run_calibration_reports_unconverged_lasso(monkeypatch, capsys):
    from gammasig import experiments
    run_calibration(reduced_cantor_config())
    assert capsys.readouterr().err == ""
    real = experiments.lasso_fit
    monkeypatch.setattr(experiments, "lasso_fit",
                        lambda *args, **kwargs: real(*args, max_iter=1, **kwargs))
    report = run_calibration(reduced_cantor_config())
    assert capsys.readouterr().err.splitlines() == [
        f"warning: cantor-calib {scheme} lasso fit not converged after n_iter=1 "
        "active-set steps" for scheme in ("strat", "ito")]
    for scheme in ("strat", "ito"):
        assert report["schemes"][scheme]["fit"]["diagnostics"] == {
            **report["schemes"][scheme]["fit"]["diagnostics"],
            "n_iter": 1, "converged": False}


def test_test_paths_whose_squares_overflow_are_named(monkeypatch, tmp_path):
    # a test path whose prices overflow is caught by the check that every
    # batch passes before its drivers are recovered: the run names the
    # chunk's test paths and writes no file, and no numpy warning of the
    # driver recovery escapes (the suite turns RuntimeWarnings into errors)
    monkeypatch.setattr(experiments, "_workers", lambda: 1)
    real = experiments.simulate_heston_batch

    def overflowing(params, grid, indices, **kwargs):
        paths = real(params, grid, indices, **kwargs)
        if 2 in indices:
            paths["S"][list(indices).index(2)] = np.inf  # in the run's buffer
        return paths

    monkeypatch.setattr(experiments, "simulate_heston_batch", overflowing)
    cfg = default_config("heston-calib", grid_n=40, n_test=3, out_dir=str(tmp_path / "out"))
    with pytest.raises(ValueError) as raised:
        run_calibration(cfg)
    assert str(raised.value) == ("heston-calib: the target of test paths 1..3 reaches inf, "
                                 "and the sum of its squares can overflow float64")
    assert not (tmp_path / "out").exists()


def test_run_calibration_rejects_wrong_experiment():
    with pytest.raises(ValueError, match="not a calibration"):
        run_calibration(default_config("cantor2-pricing"))


def test_run_calibration_output_files(tmp_path):
    cfg = reduced_cantor_config(out_dir=str(tmp_path))
    report = run_calibration(cfg)
    stamp = f"# config_hash={report['config_hash']} master_seed=0"
    for name in ("mse_summary.csv", "trajectory.csv"):
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0] == stamp, name
    mse_lines = (tmp_path / "mse_summary.csv").read_text().splitlines()
    assert mse_lines[1] == "scheme,in_sample_mse,out_sample_mse"
    assert mse_lines[2].startswith("strat,")
    assert mse_lines[3].startswith("ito,")
    traj_lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert traj_lines[1] == "t,target,pred_strat,pred_ito"
    assert len(traj_lines) == 2 + 61
    for scheme in ("strat", "ito"):
        payload = json.loads((tmp_path / f"fit_{scheme}.json").read_text())
        assert payload["config_hash"] == report["config_hash"]
        assert payload["coeffs"] == report["schemes"][scheme]["fit"]["coeffs"]


# ---------------------------------------------------------------------------
# Pricing runner
# ---------------------------------------------------------------------------


def reduced_pricing_config(**overrides) -> ExperimentConfig:
    return default_config("cantor2-pricing", grid_n=40, n_train=200,
                          n_test=100, n_mc=300, **overrides)


@pytest.fixture(scope="module")
def pricing_report():
    return run_pricing(reduced_pricing_config())


def test_run_pricing_report_structure(pricing_report):
    report = pricing_report
    assert report["experiment"] == "cantor2-pricing"
    labels = [e["payoff"] for e in report["payoffs"]]
    assert labels == [kind + "_" + "".join(map(str, assets))
                      for kind, assets in PAYOFF_ORDER]
    assert report["rejected_paths"] >= 0
    assert report["degenerate_corr_paths"] >= 0
    for entry in report["payoffs"]:
        assert entry["ci_lo"] < entry["ci_hi"]
        assert entry["ci_lo"] <= entry["mc_price"] <= entry["ci_hi"]
        for scheme in ("strat", "ito"):
            sub = entry[scheme]
            assert sub["in_sample_mse"] >= 0.0
            assert sub["out_sample_mse"] >= 0.0
            assert np.isfinite(sub["price"])
            assert sub["fit"]["objective_kind"] == "ridge-mean"
    # calls are worth at least the corresponding swap on the same statistic
    by_label = {e["payoff"]: e for e in report["payoffs"]}
    assert by_label["CovCall_12"]["mc_price"] >= \
        by_label["CovSwap_12"]["mc_price"] - 1e-12


def test_run_pricing_deterministic(pricing_report):
    again = run_pricing(reduced_pricing_config())
    for a, b in zip(pricing_report["payoffs"], again["payoffs"]):
        assert a["mc_price"] == b["mc_price"]
        assert a["strat"]["price"] == b["strat"]["price"]
        assert a["ito"]["price"] == b["ito"]["price"]


def test_run_pricing_rejects_wrong_experiment():
    with pytest.raises(ValueError, match="not a pricing"):
        run_pricing(default_config("cantor-calib"))


def test_run_pricing_output_files(tmp_path):
    cfg = reduced_pricing_config(out_dir=str(tmp_path), master_seed=2)
    report = run_pricing(cfg)
    stamp = f"# config_hash={report['config_hash']} master_seed=2"
    prices = (tmp_path / "prices.csv").read_text().splitlines()
    assert prices[0] == stamp
    assert prices[1] == "payoff,scheme,price,mc_price,ci_lo,ci_hi"
    assert len(prices) == 2 + 16  # 8 payoffs x 2 schemes
    assert prices[2].startswith("RVswap_1,strat,")
    mse_lines = (tmp_path / "mse_summary.csv").read_text().splitlines()
    assert mse_lines[1] == "payoff,scheme,in_sample_mse,out_sample_mse"
    for scheme in ("strat", "ito"):
        payload = json.loads((tmp_path / f"fit_{scheme}.json").read_text())
        assert payload["config_hash"] == report["config_hash"]
        assert set(payload["fits"]) == {e["payoff"] for e in report["payoffs"]}


@pytest.mark.parametrize("trunc_level", [1, 2, 3, 4])
def test_pricing_features_are_subsets_of_two_joint_passes(monkeypatch, trunc_level):
    # more paths than one chunk: on 2 processes, the features store one
    # joint row per scheme, and every family's columns of it equal the pass
    # over the family's own C-ordered driver, whose words are those of the
    # family's own alphabet.  On one process, where every pass is counted,
    # each chunk takes one ito pass, then one strat pass
    config = default_config("heston2-pricing", grid_n=3, trunc_level=trunc_level,
                            n_train=1000, n_test=300, n_mc=400)
    total = config.n_train + config.n_test + config.n_mc
    chunks = -(-total // experiments._PRICING_CHUNK)
    assert chunks > 1
    monkeypatch.setattr(experiments, "_workers", lambda: 2)
    feats, _, _ = experiments._pricing_features(config)
    monkeypatch.setattr(experiments, "_workers", lambda: 1)
    real = experiments.endpoint_signature_batch
    passes = []

    def counting(values, gamma, level):
        passes.append(gamma)
        return real(values, gamma, level)

    monkeypatch.setattr(experiments, "endpoint_signature_batch", counting)
    experiments._pricing_features(config)
    assert passes == [GAMMAS["ito"], GAMMAS["strat"]] * chunks
    assert list(feats) == list(SCHEMES)
    for scheme in SCHEMES:
        joint = experiments._joint_alphabet(scheme)
        assert feats[scheme].shape == (total, len(enumerate_words(joint, trunc_level)))

    x, _ = _log_paths(config, range(total))
    times = np.broadcast_to(config.grid().times, x.shape[:2])[:, :, None]
    for family, assets in experiments._PRICING_FAMILIES.items():
        sub = x[:, :, [a - 1 for a in assets]]
        for scheme in SCHEMES:
            words, columns = experiments._family_columns(family, scheme, trunc_level)
            alphabet = Alphabet(len(assets), has_time=True, has_brackets=(scheme == "ito"))
            assert words == enumerate_words(alphabet, trunc_level)
            cols = [times, sub] + ([bracket_columns(sub)] if scheme == "ito" else [])
            values = np.ascontiguousarray(np.concatenate(cols, axis=2))
            expected = np.concatenate(
                [np.ones((total, 1))] + real(values, GAMMAS[scheme], trunc_level), axis=1)
            assert len(words) == expected.shape[1]
            got = np.ascontiguousarray(feats[scheme][:, columns])
            assert np.array_equal(got.view(np.uint64), expected.view(np.uint64)), \
                (family, scheme)


@pytest.mark.parametrize("experiment", ["heston-calib", "cantor-calib"])
def test_calibration_builds_one_driver_batch_per_test_chunk(monkeypatch, experiment):
    # three test chunks, two full ones and a short last one, each simulated
    # into the head of the process's one buffer, with its driver block
    # right after the simulator's values, so that the short chunk's block
    # lies at another offset: every scheme reads its leading columns, the
    # columns of its driver, one per letter of its folded fit.  The block
    # holds the bits of each path's own driver, built from the allocating
    # simulator's arrays.  The training path goes into a buffer of its own
    # first.  One process, so that every block is read where it is counted
    monkeypatch.setattr(experiments, "_workers", lambda: 1)
    config = default_config(experiment, grid_n=20, n_test=2 * experiments._TEST_CHUNK + 1)
    grid = config.test_grid()
    _, test = _allocated_paths(config, grid, range(1, config.n_test + 1))
    plans = experiments._calibration_plans(config)
    letters = {scheme: plan.driver(grid.times, test[0]).dim for scheme, plan in plans.items()}
    assert max(letters.values()) == 3
    real = experiments.functional_paths
    blocks = []

    def recording(values, gamma, ells):
        scheme = next(s for s in SCHEMES if GAMMAS[s] == gamma)
        blocks.append((scheme, values.__array_interface__["data"][0], values.copy()))
        return real(values, gamma, ells)

    name = ("simulate_heston_batch" if experiment == "heston-calib"
            else "simulate_cantor_sde_batch")
    simulate = getattr(experiments, name)
    buffers = []

    def simulating(params, grid, indices, **kwargs):
        if "out" in kwargs:
            buffers.append(kwargs["out"].__array_interface__["data"][0])
        return simulate(params, grid, indices, **kwargs)

    monkeypatch.setattr(experiments, "functional_paths", recording)
    monkeypatch.setattr(experiments, name, simulating)
    run_calibration(config)
    sizes = [experiments._TEST_CHUNK] * 2 + [1]
    assert [(scheme, values.shape) for scheme, _, values in blocks] == [
        (scheme, (size, grid.n + 1, letters[scheme]))
        for size in sizes for scheme in SCHEMES]
    assert len(buffers) == 1 + len(sizes) and len(set(buffers[1:])) == 1
    assert [address for _, address, _ in blocks] == [
        buffers[1] + 8 * simulation_values(config.model, grid.n, size)
        for size in sizes for _ in SCHEMES]
    starts = np.repeat(np.cumsum([0] + sizes[:-1]), len(SCHEMES))
    for (scheme, _, values), start in zip(blocks, starts):
        for b, path in enumerate(values, start):
            expected = plans[scheme].driver(grid.times, test[b]).values
            assert np.array_equal(path.view(np.uint64), expected.view(np.uint64)), \
                (scheme, b)


@pytest.mark.parametrize("experiment, bound", [("heston-calib", 2.6), ("cantor-calib", 2.2)])
def test_calibration_test_run_peak_memory(monkeypatch, experiment, bound):
    # one process scores all 1000 test paths of 101 points, 10 chunks: the
    # tracemalloc peak of its run, in units of one float64 series per test
    # path.  The run's one chunk buffer holds 0.5: 100 paths of the
    # simulator's 2 series (prices and variances, or the increments of W_C
    # and the prices) and the driver block's 3; the rest is one chunk's
    # pairing.  It reads 2.37 and 1.93, and the bounds leave about 0.25 over
    # that.  A buffer for all of the run's test paths, with one driver block
    # reused by every chunk, read 4.29 and 3.83 (bounds 4.5 and 4.0), and
    # simulating every column of the run at once, and building each chunk's
    # drivers from them, read 9.11 and 5.00
    peaks = []

    def measured(step, args, total, chunk):
        tracemalloc.start()
        try:
            results = experiments._chunked(step, args, chunk, None, 0, total)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        return results

    monkeypatch.setattr(experiments, "_on_processes", measured)
    config = default_config(experiment, grid_n=200, n_test=1000)
    assert config.n_test == 10 * experiments._TEST_CHUNK
    run_calibration(config)
    ratio = peaks[0] / ((config.grid_n // 2 + 1) * config.n_test * 8)
    assert ratio <= bound, ratio


def _fanned_out_calibration(monkeypatch, record) -> ExperimentConfig:
    """A cantor-calib config whose 5 test paths are 3 chunks of 2, on 2
    processes: the caller scores paths 1-2 and a forked worker paths 3-4,
    then 5.  Every test-path simulation, in either process, first calls
    ``record(indices)``; each is one chunk's simulation into its process's
    buffer."""
    monkeypatch.setattr(experiments, "_TEST_CHUNK", 2)
    monkeypatch.setattr(experiments, "_workers", lambda: 2)
    real = experiments.simulate_cantor_sde_batch

    def recording(params, grid, indices, **kwargs):
        if indices[0] != 0:
            assert set(kwargs) == {"out"}
            record(indices)
        return real(params, grid, indices, **kwargs)

    monkeypatch.setattr(experiments, "simulate_cantor_sde_batch", recording)
    return default_config("cantor-calib", grid_n=20, n_test=5)


def _log_to(path):
    """A ``record`` that appends (pid, indices, numpy error state) to the
    file ``path``, whichever process calls it; the lines read back by
    :func:`_logged`."""
    def record(indices):
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps([os.getpid(), list(indices), np.geterr()]) + "\n")
    return record


def _logged(path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def test_calibration_worker_runs_in_the_callers_context(monkeypatch, tmp_path):
    # numpy's error state is a context variable: the forked worker sees the
    # caller's, where a fresh process would see numpy's defaults
    log = tmp_path / "log.jsonl"
    config = _fanned_out_calibration(monkeypatch, _log_to(log))
    with np.errstate(all="ignore"):
        expected = np.geterr()
        run_calibration(config)
    assert expected != np.geterr()
    records = sorted(_logged(log), key=lambda record: record[1])
    assert [indices for _, indices, _ in records] == [[1, 2], [3, 4], [5]]
    assert records[0][0] == os.getpid() != records[1][0] == records[2][0]
    assert all(state == expected for _, _, state in records)
    assert_no_child_left()


@pytest.mark.parametrize("failing, message", [((5,), "path 5"), ((2, 5), "path 2")])
def test_calibration_worker_failure_raises_the_serial_error(monkeypatch, failing, message):
    # path 5, in the worker's run, fails, or paths 2 and 5 fail, one in each
    # run: the call raises what one process scoring every path raises, the
    # first failure in path order, and no worker outlives it
    def record(indices):
        bad = [index for index in indices if index in failing]
        if bad:
            raise ValueError(f"path {bad[0]}")

    config = _fanned_out_calibration(monkeypatch, record)
    with pytest.raises(ValueError, match=f"^{message}$"):
        run_calibration(config)
    assert_no_child_left()
    monkeypatch.setattr(experiments, "_workers", lambda: 1)
    with pytest.raises(ValueError, match=f"^{message}$"):
        run_calibration(config)


def test_calibration_with_other_threads_runs_in_one_process(monkeypatch, tmp_path):
    # a fork copies only the calling thread, so a process with another
    # thread alive scores every test path itself
    log = tmp_path / "log.jsonl"
    config = _fanned_out_calibration(monkeypatch, _log_to(log))
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        run_calibration(config)
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert [(pid, indices) for pid, indices, _ in _logged(log)] == [
        (os.getpid(), indices) for indices in ([1, 2], [3, 4], [5])]


def test_pricing_builds_one_driver_batch_per_chunk(monkeypatch):
    # each chunk writes the joint driver (t, x1, x2, [1,1], [1,2], [2,2])
    # once, into the one buffer of its process, and both passes read that
    # block: the left-point pass whole, the mid-point pass its first three
    # columns.  Its values are the bits of the driver built from the
    # simulator's own arrays.  One process, so that every batch is read
    # where it is counted
    config = _small_pricing(monkeypatch, 1)
    real = experiments.endpoint_signature_batch
    passes = []

    def counting(values, gamma, level):
        passes.append((values.shape, values.__array_interface__["data"][0], values.copy()))
        return real(values, gamma, level)

    monkeypatch.setattr(experiments, "endpoint_signature_batch", counting)
    experiments._pricing_features(config)
    assert [shape for shape, _, _ in passes] == [
        (10, config.grid_n + 1, 6), (10, config.grid_n + 1, 3)] * 20
    assert len({address for _, address, _ in passes}) == 1
    x, _ = _log_paths(config, range(200))
    times = np.broadcast_to(config.grid().times, (10, config.grid_n + 1))[:, :, None]
    for chunk, lo in enumerate(range(0, 200, 10)):
        sub = x[lo:lo + 10]
        driver = np.concatenate([times, sub, bracket_columns(sub)], axis=2)
        for (_, _, values), letters in zip(passes[2 * chunk:2 * chunk + 2], (6, 3)):
            assert np.array_equal(values.view(np.uint64),
                                  driver[:, :, :letters].view(np.uint64)), chunk


class _PoisonedNumpy:
    """numpy, but every ``np.empty`` is filled with NaN, so that a value
    that no chunk writes into its buffer shows as a non-finite result."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def empty(*args, **kwargs):
        array = np.empty(*args, **kwargs)
        array.fill(np.nan)
        return array


def test_pricing_chunks_equal_their_paths_priced_alone(monkeypatch):
    # one process walks 25 paths in chunks of 7, 7, 7 and a short last 4,
    # many of them rejected for a non-positive price: every chunk's rows,
    # statistics and mask keep the bits of its paths priced alone in a run
    # of their own, so no chunk reads a value that an earlier one left.
    # Every np.empty of the experiments module is filled with NaN, so that a
    # value no chunk writes shows as a non-finite row
    monkeypatch.setattr(experiments, "np", _PoisonedNumpy())
    monkeypatch.setattr(experiments, "_PRICING_CHUNK", 7)
    monkeypatch.setattr(experiments, "_workers", lambda: 1)
    config = default_config("cantor2-pricing", grid_n=4, n_train=10, n_test=6, n_mc=9,
                            model=CantorParams(s0=(100.0, 80.0), vol_kind="linear",
                                               nu=(1.5, 1.5), rho=0.6))
    feats, stats, ok = experiments._pricing_features(config)
    bounds = [(lo, min(lo + 7, 25)) for lo in range(0, 25, 7)]
    assert bounds[-1] == (21, 25)
    # a chunk follows one with a rejected path, and a chunk keeps a path
    assert not ok[:7].all() and ok.any()
    assert all(np.isfinite(rows).all() for rows in feats.values())
    for lo, hi in bounds:
        [(alone_feats, alone_stats, alone_ok)] = experiments._chunked(
            experiments._pricing_chunk, (config,), 7, None, lo, hi)
        assert np.array_equal(ok[lo:hi], alone_ok), lo
        for got, want in ((feats, alone_feats), (stats, alone_stats)):
            assert sorted(want) == sorted(got)
            for key in want:
                assert np.array_equal(got[key][lo:hi].view(np.uint64),
                                      want[key].view(np.uint64)), (lo, key)


@pytest.mark.parametrize("experiment", ["heston-calib", "cantor-calib"])
def test_calibration_chunks_equal_their_paths_scored_alone(monkeypatch, experiment):
    # one process walks 7 test paths in chunks of 3, 3 and a short last 1,
    # whose driver block lies at another offset of the buffer, right after
    # its smaller simulation: every chunk's per-path MSEs, and the first
    # chunk's trajectory columns, keep the bits of its paths scored alone in
    # a run of their own, so no chunk reads a value that an earlier one
    # left.  Every np.empty of the experiments module is filled with NaN, so
    # that a value no chunk writes shows as a non-finite MSE
    monkeypatch.setattr(experiments, "np", _PoisonedNumpy())
    monkeypatch.setattr(experiments, "_TEST_CHUNK", 3)
    monkeypatch.setattr(experiments, "_workers", lambda: 1)
    real = experiments._on_processes
    calls = []

    def capturing(step, args, total, chunk):
        calls.append((args, real(step, args, total, chunk)))
        return calls[-1][1]

    monkeypatch.setattr(experiments, "_on_processes", capturing)
    run_calibration(default_config(experiment, grid_n=20, n_test=7))
    [(args, chunks)] = calls
    bounds = [(0, 3), (3, 6), (6, 7)]
    assert len(chunks) == len(bounds)
    for (lo, hi), (mses, trajectory) in zip(bounds, chunks):
        [(alone, alone_trajectory)] = experiments._chunked(
            experiments._score_chunk, args, 3, None, lo, hi)
        assert trajectory == alone_trajectory and bool(trajectory) == (lo == 0)
        assert list(mses) == list(alone) == list(SCHEMES)
        for scheme in SCHEMES:
            assert mses[scheme].shape == (hi - lo,) and np.isfinite(mses[scheme]).all()
            assert np.array_equal(mses[scheme].view(np.uint64),
                                  alone[scheme].view(np.uint64)), (lo, scheme)


def test_pricing_brackets_once_per_chunk(monkeypatch):
    # each chunk builds its bracket block once, into its driver block, for
    # the statistics and the left-point pass; the statistics keep the bits
    # of the whole-batch route.  One process, so that every block is built
    # where it is counted
    monkeypatch.setattr(experiments, "_workers", lambda: 1)
    config = default_config("heston2-pricing", grid_n=3, n_train=1000, n_test=300,
                            n_mc=400)
    total = config.n_train + config.n_test + config.n_mc
    chunks = -(-total // experiments._PRICING_CHUNK)
    assert chunks > 1
    real = experiments.bracket_columns
    shapes = []

    def counting(values, **kwargs):
        shapes.append(values.shape)
        return real(values, **kwargs)

    monkeypatch.setattr(experiments, "bracket_columns", counting)
    _, stats, _ = experiments._pricing_features(config)
    assert len(shapes) == chunks
    x, _ = _log_paths(config, range(total))
    expected = experiments.realized_stats_batch(real(x)[:, -1])
    assert list(stats) == list(expected)
    for key, arr in expected.items():
        assert np.array_equal(stats[key].view(np.uint64), arr.view(np.uint64)), key


#: (experiment, trunc_level, bound) of the pricing peak-memory guards.
_PEAK_BOUNDS = [
    pytest.param("heston2-pricing", 2, 1.6, id="heston2-pricing-1.6"),
    pytest.param("cantor2-pricing", 2, 3.60, id="cantor2-pricing-3.6"),
    pytest.param("cantor2-pricing", 3, 3.0, id="cantor2-pricing-level3-3.0"),
    pytest.param("heston2-pricing", 3, 2.7, id="heston2-pricing-level3-2.7")]


@pytest.mark.parametrize("experiment, trunc_level, bound", _PEAK_BOUNDS)
def test_pricing_chunk_peak_memory(experiment, trunc_level, bound):
    # one chunk of 400 paths on 100 steps: the tracemalloc peak of the
    # features, in units of the bytes of its left-point joint values
    # (t, x1, x2, [1,1], [1,2], [2,2]); the cantor2 level-2 bound is the
    # peak of the paths-first layout this one replaced, which held the
    # increments and level 1 of the left-point pass beside the log-prices
    # and the values.  The two-asset Heston simulator works inside the
    # driver block, correlating its draws through a block-sized scratch: it
    # read 1.86 at level 2 and 2.82 at level 3 when its buffer held the
    # draws and the correlated increments side by side, and reads 1.45 and
    # 2.46 now.  At level 3 the end-point pass carries level 2 as a running
    # state (about 2.5x); its trajectory along the grid would be about 27x
    config = default_config(experiment, grid_n=100, n_train=300, n_test=50, n_mc=50,
                            trunc_level=trunc_level)
    total = config.n_train + config.n_test + config.n_mc
    assert total <= experiments._PRICING_CHUNK
    tracemalloc.start()
    try:
        experiments._pricing_features(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    ratio = peak / (total * (config.grid_n + 1) * 6 * 8)
    assert ratio <= bound, ratio


@pytest.mark.parametrize("experiment, trunc_level, bound", _PEAK_BOUNDS)
def test_pricing_peak_memory_over_chunks_in_flight(monkeypatch, experiment, trunc_level,
                                                    bound):
    # four chunks on two processes: the caller's peak stays within the
    # one-chunk bound, counted on the caller's one chunk in flight: it reads
    # the worker's rows only once its own run has ended.  The feature,
    # statistic and mask rows of the other paths are the result, not
    # working memory, and are taken off the peak
    monkeypatch.setattr(experiments, "_workers", lambda: 2)
    chunk = experiments._PRICING_CHUNK
    config = default_config(experiment, grid_n=100, n_train=4 * chunk - 100, n_test=50,
                            n_mc=50, trunc_level=trunc_level)
    total = config.n_train + config.n_test + config.n_mc
    in_flight = chunk
    tracemalloc.start()
    try:
        feats, _, _ = experiments._pricing_features(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    row_bytes = 8 * sum(rows.shape[1] for rows in feats.values()) + 6 * 8 + 1
    working = peak - (total - in_flight) * row_bytes
    ratio = working / (in_flight * (config.grid_n + 1) * 6 * 8)
    assert ratio <= bound, ratio


def _log_paths(config: ExperimentConfig, indices) -> tuple[np.ndarray, np.ndarray]:
    """The shifted log-prices (B, n+1, 2) of paths ``indices`` and their
    mask of positive prices, from the simulator's own arrays (a non-positive
    price read as 1): what a pricing chunk writes into its driver block."""
    simulate = (simulate_heston2_batch if config.experiment == "heston2-pricing"
                else simulate_cantor_sde_batch)
    S = simulate(config.model, config.grid(), indices)["S"]
    safe = np.where(S > 0.0, S, 1.0)
    return np.log(safe) - np.log(safe[:, :1, :]), np.all(S > 0.0, axis=(1, 2))


def _small_pricing(monkeypatch, workers: int) -> ExperimentConfig:
    """A 200-path pricing config on 3 steps, in 20 chunks of 10 paths on
    ``workers`` processes: with 2, the caller prices paths 0-99 and a forked
    worker paths 100-199."""
    monkeypatch.setattr(experiments, "_PRICING_CHUNK", 10)
    monkeypatch.setattr(experiments, "_workers", lambda: workers)
    return default_config("heston2-pricing", grid_n=3, n_train=100, n_test=50, n_mc=50)


def _fanned_out_pricing(monkeypatch, record, workers: int = 2) -> ExperimentConfig:
    """:func:`_small_pricing` on ``workers`` processes, whose every chunk,
    in either process, first calls ``record(indices)`` on its paths."""
    config = _small_pricing(monkeypatch, workers)
    real = experiments._pricing_chunk

    def recording(config, start, stop, buffer):
        record(range(start, stop))
        return real(config, start, stop, buffer)

    monkeypatch.setattr(experiments, "_pricing_chunk", recording)
    return config


#: The paths of each chunk of :func:`_small_pricing`, in path order.
_SMALL_CHUNKS = [list(range(start, start + 10)) for start in range(0, 200, 10)]


def test_pricing_chunks_run_in_the_callers_context(monkeypatch, tmp_path):
    # numpy's error state is a context variable: the forked worker sees the
    # caller's, where a fresh process would see numpy's defaults
    log = tmp_path / "log.jsonl"
    config = _fanned_out_pricing(monkeypatch, _log_to(log))
    with np.errstate(all="ignore"):
        expected = np.geterr()
        experiments._pricing_features(config)
    assert expected != np.geterr()
    records = sorted(_logged(log), key=lambda record: record[1])
    assert [indices for _, indices, _ in records] == _SMALL_CHUNKS
    pids = [pid for pid, _, _ in records]
    assert pids[:10] == [os.getpid()] * 10
    assert len(set(pids[10:])) == 1 and pids[10] != os.getpid()
    assert all(state == expected for _, _, state in records)
    assert_no_child_left()


@pytest.mark.parametrize("workers", [1, 2])
def test_pricing_chunk_failure_raises_first_in_chunk_order(monkeypatch, workers):
    # path 100, the worker's first, fails at once, or path 90, the caller's
    # last, fails, or both: the call raises what one process pricing every
    # path raises, the first failure in path order, whichever fails first,
    # and no worker and no thread outlives it
    failing = []

    def record(indices):
        bad = [index for index in indices if index in failing]
        if bad:
            raise ValueError(f"path {bad[0]}")

    config = _fanned_out_pricing(monkeypatch, record, workers)
    before = set(threading.enumerate())
    for paths, message in (((100,), "path 100"), ((90,), "path 90"),
                           ((90, 100), "path 90")):
        failing[:] = paths
        with pytest.raises(ValueError, match=f"^{message}$"):
            experiments._pricing_features(config)
        assert_no_child_left()
        assert set(threading.enumerate()) == before


def test_pricing_with_other_threads_runs_in_one_process(monkeypatch, tmp_path):
    # a fork copies only the calling thread, so a process with another
    # thread alive prices every path itself
    log = tmp_path / "log.jsonl"
    config = _fanned_out_pricing(monkeypatch, _log_to(log))
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        experiments._pricing_features(config)
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert [(pid, indices) for pid, indices, _ in _logged(log)] == [
        (os.getpid(), indices) for indices in _SMALL_CHUNKS]


def test_pricing_worker_that_dies_raises_and_leaves_no_child(monkeypatch):
    # the worker ends through os._exit inside its task, before it sends a
    # result: the caller names its paths and exit status, and reaps it
    def record(indices):
        if 100 in indices:
            os._exit(7)

    config = _fanned_out_pricing(monkeypatch, record)
    with pytest.raises(RuntimeError, match=r"^the worker process of paths 100\.\.199 "
                                           r"ended with exit status 7 before it sent its "
                                           r"result$"):
        experiments._pricing_features(config)
    assert_no_child_left()


def test_worker_result_that_cannot_be_pickled_raises_and_leaves_no_child(monkeypatch):
    # a worker's result reaches the caller pickled; one that cannot be
    # pickled is an error that says so, raised in path order after the
    # caller's own run, and the worker is reaped
    monkeypatch.setattr(experiments, "_workers", lambda: 2)
    config = default_config("cantor2-pricing", grid_n=2, n_train=5, n_test=2, n_mc=3)
    ran = []

    def step(config, lo, hi, buffer):
        ran.append(lo)
        return (lambda: hi) if lo else list(range(lo, hi))

    with pytest.raises(RuntimeError, match=r"^the worker process of paths 5\.\.9 cannot "
                                           r"send its result: "):
        experiments._on_processes(step, (config,), 10, 5)
    assert ran == [0]
    assert_no_child_left()


def test_fan_out_starts_no_thread(monkeypatch, tmp_path):
    # the caller forks its worker and reads the worker's result from a
    # pipe itself: a two-process run starts no thread
    def refuse(thread):
        raise AssertionError(f"a run started the thread {thread!r}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    log = tmp_path / "log.jsonl"
    config = _fanned_out_pricing(monkeypatch, _log_to(log))
    experiments._pricing_features(config)
    assert len({pid for pid, _, _ in _logged(log)}) == 2
    assert_no_child_left()


def test_fanned_out_runs_import_no_process_pool():
    # a fresh interpreter that runs a pricing and a calibration on two
    # processes each imports neither concurrent.futures nor
    # multiprocessing, starts no thread and leaves no child
    import subprocess
    import sys

    src = os.path.dirname(os.path.dirname(os.path.abspath(experiments.__file__)))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = (
        "import os, sys, threading\n"
        "from gammasig import experiments as e\n"
        "e._workers = lambda: 2\n"
        "e.run_pricing(e.default_config('cantor2-pricing', grid_n=4, n_train=700, n_test=10,"
        " n_mc=10))\n"
        "e.run_calibration(e.default_config('cantor-calib', grid_n=10, n_test=150))\n"
        "try:\n"
        "    os.waitpid(-1, os.WNOHANG)\n"
        "    child = True\n"
        "except ChildProcessError:\n"
        "    child = False\n"
        "print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules],"
        " threading.active_count(), child)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    assert proc.stdout.split("\n")[-2] == "[] 1 False"


def _ended(pid: int) -> bool:
    """Whether the process ``pid`` has ended: it is gone, or it is a zombie
    (state Z in ``/proc/<pid>/stat``) that its new parent has not reaped
    yet."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as fh:
            return fh.read().rpartition(")")[2].split()[0] == "Z"
    except FileNotFoundError:
        return True


def test_worker_ends_when_its_caller_is_killed(tmp_path):
    # a fresh interpreter runs 40 one-path chunks on two processes, each
    # chunk writing its process's pid and sleeping 0.2 s, so each run takes
    # 4 s.  Once the forked worker has started, the interpreter is killed
    # with SIGKILL: the worker, whose parent is then another process, ends
    # within 2 s, before its next chunk, where it used to run out its whole
    # run.  Each step sleeps 0.2 s per path, so that a fan-out that hands a
    # worker its whole run in one call sleeps as long
    import subprocess
    import sys

    if not os.path.isdir("/proc/self"):
        pytest.skip("reading a process's state needs /proc")
    src = os.path.dirname(os.path.dirname(os.path.abspath(experiments.__file__)))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    pids = tmp_path / "pids"
    script = (
        "import os, time\n"
        "from gammasig import experiments as e\n"
        "e._workers = lambda: 2\n"
        "def step(config, lo, hi, *buffer):\n"
        f"    with open({str(pids)!r}, 'a', encoding='utf-8') as fh:\n"
        "        fh.write(f'{os.getpid()}\\n')\n"
        "    time.sleep(0.2 * (hi - lo))\n"
        "config = e.default_config('cantor2-pricing', grid_n=2, n_train=20, n_test=10,"
        " n_mc=10)\n"
        "e._on_processes(step, (config,), 40, 1)\n")
    with open(tmp_path / "stderr", "w", encoding="utf-8") as stderr:
        proc = subprocess.Popen([sys.executable, "-c", script], env=env,
                                stdout=subprocess.DEVNULL, stderr=stderr)
    worker = None
    try:
        deadline = time.monotonic() + 60
        while worker is None:
            assert proc.poll() is None and time.monotonic() < deadline, \
                (tmp_path / "stderr").read_text()
            time.sleep(0.05)
            lines = pids.read_text().splitlines(keepends=True) if pids.exists() else []
            worker = next((int(line) for line in lines
                           if line.endswith("\n") and int(line) != proc.pid), None)
    finally:
        proc.kill()
        proc.wait(timeout=10)
    try:
        deadline = time.monotonic() + 2
        while not _ended(worker):
            assert time.monotonic() < deadline, f"worker {worker} outlived its killed caller"
            time.sleep(0.05)
    finally:
        if not _ended(worker):
            os.kill(worker, signal.SIGKILL)


def test_pricing_stats_order_independent_of_finishing_order(monkeypatch):
    # chunk 0 is slowed, so the caller's run ends after the worker's, yet
    # the statistics (and so the strikes of the report) keep the key order
    # of realized_stats_batch and the bits of the serial run
    config = _small_pricing(monkeypatch, 1)
    serial = experiments._pricing_features(config)
    monkeypatch.setattr(experiments, "_workers", lambda: 2)
    real = experiments._pricing_chunk

    def slow_first(config, start, stop, buffer):
        if start == 0:
            time.sleep(0.2)
        return real(config, start, stop, buffer)

    monkeypatch.setattr(experiments, "_pricing_chunk", slow_first)
    feats, stats, ok = experiments._pricing_features(config)
    x, _ = _log_paths(config, range(10))
    expected = list(experiments.realized_stats_batch(bracket_columns(x)[:, -1]))
    assert list(stats) == list(serial[1]) == expected
    for got, want in ((feats, serial[0]), (stats, serial[1])):
        for key in want:
            assert np.array_equal(got[key].view(np.uint64), want[key].view(np.uint64)), key
    assert np.array_equal(ok, serial[2])
    assert list(run_pricing(config)["strikes"]) == expected


# ---------------------------------------------------------------------------
# Check runner
# ---------------------------------------------------------------------------


def test_run_checks_filter_and_stamp():
    cfg = default_config("check", check_filter="tensor")
    report = run_checks(cfg)
    assert report["passed"] is True
    assert set(report["modules"]) == {"tensor"}
    assert report["config_hash"] == config_hash(cfg)
    for entry in report["modules"]["tensor"]["checks"].values():
        assert entry["passed"], entry


def test_run_checks_unknown_filter():
    cfg = default_config("check", check_filter="nonsense")
    with pytest.raises(ValueError, match="unknown module"):
        run_checks(cfg)


def _check(module: str, name: str):
    from gammasig import checks
    return dict(checks.MODULES[module])[name]


def test_signature_checks_fail_on_nan_levels(monkeypatch):
    # a NaN residual must fail a check, not be skipped by the reduction
    from gammasig import checks, signature

    def nan_signature(path, gamma, trunc_level):
        traj = signature.gamma_signature(path, gamma, trunc_level)
        return dataclasses.replace(
            traj, levels=tuple(np.full_like(level, np.nan) for level in traj.levels))

    monkeypatch.setattr(checks, "gamma_signature", nan_signature)
    for name in ("oracle-equivalence", "backward-symmetry", "degree2-identities"):
        ok, detail = _check("signature", name)(None)
        assert not ok, (name, detail)


def test_payoff_checks_fail_on_nan_statistics(monkeypatch):
    from gammasig import payoffs
    real = payoffs.realized_stats_batch

    def nan_stats(log_values):
        return {key: np.full_like(arr, np.nan) for key, arr in real(log_values).items()}

    monkeypatch.setattr(payoffs, "realized_stats_batch", nan_stats)
    for name in ("call-swap-consistency", "corr-bound", "rvar-qv-consistency"):
        ok, detail = _check("payoffs", name)(None)
        assert not ok, (name, detail)


def test_models_determinism_fails_on_batch_mismatch(monkeypatch):
    from gammasig import models
    real = models.simulate_heston_batch

    def shifted(params, grid, path_indices):
        # row b drawn from stream path_indices[b] + b: a batch-dependent path
        return real(params, grid, [i + b for b, i in enumerate(path_indices)])

    monkeypatch.setattr(models, "simulate_heston_batch", shifted)
    ok, detail = _check("models", "determinism")(None)
    assert not ok and "batch composition" in detail


def test_run_checks_fault_injection():
    cfg = default_config("check", check_filter="regress",
                         inject_fault="lasso-threshold")
    report = run_checks(cfg)
    assert report["passed"] is False
    assert not report["modules"]["regress"]["passed"]
