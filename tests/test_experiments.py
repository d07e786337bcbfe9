"""Tests for experiment configuration, runners, and their output files."""
from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from gammasig import (
    CantorParams,
    ExperimentConfig,
    PAYOFF_ORDER,
    RegressionFit,
    config_hash,
    default_config,
    experiments,
    functional_matrix,
    gamma_signature,
    mse,
    predict,
    run_calibration,
    run_checks,
    run_pricing,
)
from gammasig.experiments import GAMMAS, SCHEMES
from gammasig.signature import bracket_columns

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


def test_default_config_overrides():
    cfg = default_config("heston-calib", master_seed=3, grid_n=500, n_test=7)
    assert cfg.grid_n == 500 and cfg.n_test == 7 and cfg.master_seed == 3
    assert cfg.alpha == 1e-5 and cfg.regression_kind == "lasso"


# ---------------------------------------------------------------------------
# Calibration runner
# ---------------------------------------------------------------------------


def reduced_cantor_config(**overrides) -> ExperimentConfig:
    return default_config("cantor-calib", grid_n=120, n_test=3, **overrides)


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
    # the test paths go through functional_paths in chunks; one more chunk
    # than fits evenly must give what one signature per path gives
    from gammasig import experiments
    cfg = default_config(experiment, grid_n=40, n_test=experiments._TEST_CHUNK + 3)
    report = run_calibration(cfg)
    test_grid = cfg.test_grid()
    test = experiments._simulate_calibration_columns(
        cfg, test_grid, range(1, cfg.n_test + 1))
    for scheme, plan in experiments._calibration_plans(cfg).items():
        stamped = report["schemes"][scheme]["fit"]
        fit = RegressionFit(plan.labels, stamped["coeffs"], stamped["intercept"],
                            stamped["alpha"], stamped["objective_kind"])
        out_mses = []
        for i in range(cfg.n_test):
            traj = gamma_signature(plan.driver(test_grid.times, test, i),
                                   plan.gamma, plan.sig_level)
            pred = predict(fit, functional_matrix(traj, plan.functionals))
            out_mses.append(mse(pred, test["S"][i]))
            if i == 0:
                assert report["trajectory"][f"pred_{scheme}"] == [float(v) for v in pred]
        assert report["schemes"][scheme]["out_sample_mse"] == float(np.mean(out_mses))


@pytest.mark.parametrize("experiment", ["heston-calib", "cantor-calib"])
def test_run_calibration_in_sample_mse_is_the_lasso_diagnostic(experiment):
    # the stamped in-sample MSE is the lasso's own, with the bits of scoring
    # the training design again
    cfg = default_config(experiment, grid_n=40, n_test=3)
    report = run_calibration(cfg)
    grid = cfg.grid()
    train = experiments._simulate_calibration_columns(cfg, grid, [0])
    for scheme, plan in experiments._calibration_plans(cfg).items():
        stamped = report["schemes"][scheme]
        fit = RegressionFit(plan.labels, stamped["fit"]["coeffs"],
                            stamped["fit"]["intercept"], stamped["fit"]["alpha"],
                            stamped["fit"]["objective_kind"])
        traj = gamma_signature(plan.driver(grid.times, train, 0), plan.gamma,
                               plan.sig_level)
        rescored = mse(predict(fit, functional_matrix(traj, plan.functionals)),
                       train["S"][0])
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


def test_family_letters_map_into_the_joint_alphabet():
    assert experiments._family_letters("2", "ito") == {0: 0, 1: 2, 2: 5}
    assert experiments._family_letters("1", "ito") == {0: 0, 1: 1, 2: 3}
    assert experiments._family_letters("2", "strat") == {0: 0, 1: 2}
    assert experiments._family_letters("12", "ito") == {k: k for k in range(6)}


@pytest.mark.parametrize("trunc_level", [2, 3])
def test_pricing_features_are_subsets_of_two_joint_passes(monkeypatch, trunc_level):
    # more paths than one chunk: each chunk takes one ito and one strat pass,
    # and every family's block equals the pass over its own C-ordered driver
    config = default_config("heston2-pricing", grid_n=3, trunc_level=trunc_level,
                            n_train=1000, n_test=300, n_mc=400)
    total = config.n_train + config.n_test + config.n_mc
    assert total > experiments._PRICING_CHUNK
    real = experiments.endpoint_signature_batch
    gammas = []

    def counting(values, gamma, level):
        gammas.append(gamma)
        return real(values, gamma, level)

    monkeypatch.setattr(experiments, "endpoint_signature_batch", counting)
    layout = experiments._pricing_layout(trunc_level)
    feats, _, _ = experiments._pricing_features(config, layout)
    assert gammas == [GAMMAS["ito"], GAMMAS["strat"]] * 2

    x, _ = experiments._pricing_log_paths(config, range(total))
    times = np.broadcast_to(config.grid().times, x.shape[:2])[:, :, None]
    for family, assets in experiments._PRICING_FAMILIES.items():
        sub = x[:, :, [a - 1 for a in assets]]
        for scheme in SCHEMES:
            words, _ = layout[(family, scheme)]
            cols = [times, sub] + ([bracket_columns(sub)] if scheme == "ito" else [])
            values = np.ascontiguousarray(np.concatenate(cols, axis=2))
            expected = np.concatenate(
                [np.ones((total, 1))] + real(values, GAMMAS[scheme], trunc_level), axis=1)
            assert len(words) == expected.shape[1]
            got = feats[(family, scheme)]
            assert np.array_equal(got.view(np.uint64), expected.view(np.uint64)), \
                (family, scheme)


def test_pricing_brackets_once_per_chunk(monkeypatch):
    # each chunk builds its bracket block once, for the statistics and the
    # left-point pass; the statistics keep the bits of the whole-batch route
    config = default_config("heston2-pricing", grid_n=3, n_train=1000, n_test=300,
                            n_mc=400)
    total = config.n_train + config.n_test + config.n_mc
    chunks = -(-total // experiments._PRICING_CHUNK)
    assert chunks > 1
    real = experiments.bracket_columns
    shapes = []

    def counting(values):
        shapes.append(values.shape)
        return real(values)

    monkeypatch.setattr(experiments, "bracket_columns", counting)
    _, stats, _ = experiments._pricing_features(config, experiments._pricing_layout(2))
    assert len(shapes) == chunks
    x, _ = experiments._pricing_log_paths(config, range(total))
    expected = experiments.realized_stats_batch(real(x)[:, -1])
    assert list(stats) == list(expected)
    for key, arr in expected.items():
        assert np.array_equal(stats[key].view(np.uint64), arr.view(np.uint64)), key


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
