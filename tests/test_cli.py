"""Tests for the command line interface, driven through ``main(argv)``."""
from __future__ import annotations

import json
import re

import numpy as np
import pytest

from gammasig import Alphabet, SamplePath, cli, write_path_csv
from gammasig.cli import main


def write_config(tmp_path, name, payload) -> str:
    target = tmp_path / name
    target.write_text(json.dumps(payload))
    return str(target)


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def test_check_filter_passes(capsys):
    assert main(["check", "--filter", "tensor"]) == 0
    out = capsys.readouterr().out
    assert "PASS tensor/" in out
    assert "FAIL" not in out
    assert "checks passed" in out


def test_check_fault_injection_fails(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {
        "experiment": "check",
        "check": {"filter": "regress", "inject_fault": "lasso-threshold"},
    })
    assert main(["check", "--config", cfg]) == 1
    out = capsys.readouterr().out
    assert "FAIL regress/lasso-stationarity" in out
    assert "FAILED" in out


def test_check_writes_report(tmp_path, capsys):
    out_dir = tmp_path / "reports"
    assert main(["check", "--filter", "payoffs", "--out", str(out_dir)]) == 0
    capsys.readouterr()
    report = json.loads((out_dir / "check_report.json").read_text())
    assert report["passed"] is True
    assert set(report["modules"]) == {"payoffs"}


def test_check_unknown_filter(capsys):
    assert main(["check", "--filter", "nonsense"]) == 2
    assert "unknown module" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# config errors
# ---------------------------------------------------------------------------


def test_missing_config_file(capsys):
    assert main(["calibrate", "--config", "/no/such/file.json"]) == 2
    assert "cannot read config file" in capsys.readouterr().err


def test_invalid_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["calibrate", "--config", str(bad)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_non_object_root(tmp_path, capsys):
    bad = tmp_path / "list.json"
    bad.write_text("[1, 2]")
    assert main(["calibrate", "--config", str(bad)]) == 2
    assert "JSON object" in capsys.readouterr().err


def test_unknown_experiment(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {"experiment": "mystery"})
    assert main(["calibrate", "--config", cfg]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_calibrate_requires_experiment(capsys):
    assert main(["calibrate"]) == 2
    assert "experiment" in capsys.readouterr().err


def test_calibrate_rejects_pricing_experiment(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {
        "experiment": "cantor2-pricing",
        "grid": {"n": 40},
        "samples": {"N_train": 50, "N_test": 20, "N_MC": 30},
    })
    assert main(["calibrate", "--config", cfg]) == 2
    assert "not a calibration experiment" in capsys.readouterr().err


def test_price_rejects_calibration_experiment(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {"experiment": "cantor-calib"})
    assert main(["price", "--config", cfg]) == 2
    assert "not a pricing experiment" in capsys.readouterr().err


def test_invalid_field_value(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {
        "experiment": "cantor-calib",
        "regression": {"kind": "ols"},
    })
    assert main(["calibrate", "--config", cfg]) == 2
    assert "invalid configuration" in capsys.readouterr().err


def test_calibration_grid_too_coarse_for_test_grid(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {
        "experiment": "heston-calib",
        "grid": {"n": 1},
    })
    assert main(["calibrate", "--config", cfg]) == 2
    assert "grid n >= 2" in capsys.readouterr().err


@pytest.mark.parametrize("command,experiment", [
    ("calibrate", "cantor-calib"),
    ("price", "cantor2-pricing"),
])
def test_cantor_grid_beyond_unit_interval(tmp_path, capsys, command, experiment):
    cfg = write_config(tmp_path, "c.json", {
        "experiment": experiment,
        "grid": {"T": 2.0, "n": 40},
    })
    assert main([command, "--config", cfg]) == 2
    assert "grid T <= 1" in capsys.readouterr().err


def test_pricing_needs_two_monte_carlo_paths(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {
        "experiment": "heston2-pricing",
        "grid": {"n": 20},
        "samples": {"N_train": 50, "N_test": 20, "N_MC": 1},
    })
    assert main(["price", "--config", cfg]) == 2
    assert "N_MC >= 2" in capsys.readouterr().err


_LINEAR_CANTOR = {"s0": [100.0, 80.0], "vol_kind": "linear", "rho": 0.6}


@pytest.mark.parametrize("model,samples,alpha,cause", [
    # the time coordinates are equal on every path: singular at alpha 0
    ({"nu": [0.2, 0.3]}, {"N_train": 3, "N_test": 5, "N_MC": 5}, 0.0,
     "pricing needs alpha > 0"),
    # every training path reaches a non-positive price
    ({"nu": [60.0, 60.0]}, {"N_train": 20, "N_test": 5, "N_MC": 20}, 1e-6,
     "the training cohort keeps 0 of its 20 paths after 45 of 45 paths were rejected"),
    # two training paths survive, no test path does
    ({"nu": [3.0, 3.0]}, {"N_train": 20, "N_test": 5, "N_MC": 20}, 1e-6,
     "the test cohort keeps 0 of its 5 paths after 42 of 45 paths were rejected"),
    # one Monte Carlo path survives: no confidence interval
    ({"nu": [3.0, 3.0]}, {"N_train": 8, "N_test": 5, "N_MC": 32}, 1e-6,
     "the Monte Carlo cohort keeps 1 of its 32 paths"),
    # the first asset's prices overflow float64: 25 paths reach NaN and the
    # 20 others +inf or a non-positive price, without a numpy warning
    ({"nu": [1e50, 0.3]}, {"N_train": 20, "N_test": 5, "N_MC": 20}, 1e-6,
     "the training cohort keeps 0 of its 20 paths after 45 of 45 paths were rejected "
     "for a non-positive or non-finite price"),
])
def test_degenerate_pricing_exits_2_with_cause(tmp_path, capsys, model, samples,
                                                alpha, cause):
    cfg = write_config(tmp_path, "c.json", {
        "experiment": "cantor2-pricing",
        "model": {**_LINEAR_CANTOR, **model},
        "grid": {"n": 10},
        "regression": {"alpha": alpha},
        "samples": samples,
    })
    assert main(["price", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert cause in err and "Traceback" not in err


def test_degenerate_calibration_exits_2_with_cause(tmp_path, capsys):
    # the prices' squares overflow float64: named before any fit, with no
    # numpy or lasso warning on stderr, no stamped inf and no file at all;
    # prices that overflow float64 on the way end in NaN, named alike
    for model, peak in (({"mu": 1e6, "sigma": 50.0, "v0": 50.0}, "1.128e+215"),
                        ({"mu": 1e100}, "nan")):
        cfg = write_config(tmp_path, "c.json", {
            "experiment": "heston-calib",
            "model": model,
            "grid": {"n": 50},
            "samples": {"N_test": 5},
        })
        out_dir = tmp_path / "out"
        assert main(["calibrate", "--config", cfg, "--out", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [
            f"error: heston-calib: the training target reaches {peak}, and the "
            "sum of its squares can overflow float64"]
        assert not (out_dir / "mse_summary.csv").exists()


def test_collinear_lasso_active_set_converges(tmp_path, capsys):
    # at alpha > 0 a column of the ito fit joins in the span of the active
    # columns on the way to the optimum: it waits until one leaves, and both
    # fits end at the optimum, not in a "collinear" exit 2
    cfg = write_config(tmp_path, "c.json", {
        "experiment": "heston-calib", "grid": {"n": 8}, "samples": {"N_test": 5},
        "regression": {"alpha": 0.001},
        "model": {"s0": 65.0066, "v0": 1.1698, "theta": 0.38553, "kappa": 0.96545,
                  "sigma": 1.66632, "rho": -0.81941, "mu": 4.33589},
    })
    out_dir = tmp_path / "out"
    assert main(["calibrate", "--config", cfg, "--out", str(out_dir)]) == 0
    assert capsys.readouterr().err == ""
    for scheme in ("ito", "strat"):
        fit = json.loads((out_dir / f"fit_{scheme}.json").read_text())
        assert fit["diagnostics"]["converged"], scheme


def test_unknown_config_key_names_its_path(tmp_path, capsys):
    cases = [
        ({"experiment": "cantor-calib", "sample": {"N_test": 3}}, "sample"),
        ({"experiment": "cantor-calib", "samples": {"N_tset": 3}}, "samples.N_tset"),
        ({"experiment": "heston-calib", "model": {"rhoo": -0.5}}, "model.rhoo"),
    ]
    for payload, dotted in cases:
        cfg = write_config(tmp_path, "c.json", payload)
        assert main(["calibrate", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "unknown config key" in err and dotted in err


@pytest.mark.parametrize("command, payload, key", [
    ("calibrate", {"experiment": "cantor-calib", "grid": 5}, "grid"),
    ("calibrate", {"experiment": "cantor-calib", "samples": [1]}, "samples"),
    ("sigdump", {"augment": True}, "augment"),
    ("sigdump", {"gamma": "abc"}, "gamma"),
    ("sigdump", {"trunc_level": "x"}, "trunc_level"),
    ("sigdump", {"path_csv": 5}, "path_csv"),
    ("sigdump", {"trunc_levle": 3}, "trunc_levle"),
])
def test_config_error_names_its_key(tmp_path, capsys, command, payload, key):
    if command == "sigdump":
        payload = {"path_csv": make_path_csv(tmp_path), **payload}
    cfg = write_config(tmp_path, "c.json", payload)
    assert main([command, "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert f"'{key}'" in captured.err
    assert "Traceback" not in captured.err and not captured.out


#: Small sizes, so that a case the contract fails to reject ends quickly.
_SMALL = {"grid": {"n": 40}, "samples": {"N_test": 2}}
_SMALL_PRICE = {"grid": {"n": 20}, "samples": {"N_train": 30, "N_test": 10, "N_MC": 30}}


@pytest.mark.parametrize("command, payload, argv, key", [
    # Cantor asset count
    ("calibrate", {"experiment": "cantor-calib", "model": {"s0": [0.0, 1.0]}}, [],
     "model.s0"),
    ("price", {"experiment": "cantor2-pricing", **_SMALL_PRICE,
               "model": {"s0": [100.0], "nu": [0.2]}}, [], "model.s0"),
    # --seed and out_dir go through the same validation as the file
    ("calibrate", {"experiment": "cantor-calib", **_SMALL}, ["--seed", "-1"],
     "master_seed"),
    ("calibrate", {"experiment": "cantor-calib", **_SMALL, "out_dir": 5}, [], "out_dir"),
    ("check", {"experiment": "check", "check": {"inject_fault": "lasso-treshold"}}, [],
     "check.inject_fault"),
    ("check", {"experiment": "check", "model": {"s0": 1.0}}, [], "model"),
    ("sigdump", {"master_seed": -1}, [], "master_seed"),
    ("sigdump", {"master_seed": 2 ** 64}, [], "master_seed"),
    ("sigdump", {}, ["--seed", "-1"], "master_seed"),
    # keys no run reads are fixed
    ("calibrate", {"experiment": "cantor-calib", **_SMALL, "regression": {"kind": "ridge"}},
     [], "regression.kind"),
    ("price", {"experiment": "cantor2-pricing", **_SMALL_PRICE,
               "regression": {"kind": "lasso"}}, [], "regression.kind"),
    ("calibrate", {"experiment": "heston-calib", "grid": {"n": 40},
                   "samples": {"N_test": 2, "N_train": 5}}, [], "samples.N_train"),
    ("calibrate", {"experiment": "cantor-calib", "grid": {"n": 40},
                   "samples": {"N_test": 2, "N_MC": 5}}, [], "samples.N_MC"),
    # type rule: bool
    ("sigdump", {"augment": {"time": "no"}}, [], "augment.time"),
    ("sigdump", {"augment": {"brackets": 1}}, [], "augment.brackets"),
    # type rule: int (no bool, no fractional or integral float)
    ("calibrate", {"experiment": "cantor-calib", **_SMALL, "grid": {"n": 40.7}}, [],
     "grid.n"),
    ("calibrate", {"experiment": "cantor-calib", "grid": {"n": 40},
                   "samples": {"N_test": 1.9}}, [], "samples.N_test"),
    ("calibrate", {"experiment": "cantor-calib", "grid": {"n": 40},
                   "samples": {"N_test": 2.0}}, [], "samples.N_test"),
    ("calibrate", {"experiment": "cantor-calib", "grid": {"n": 40},
                   "samples": {"N_test": True}}, [], "samples.N_test"),
    ("sigdump", {"trunc_level": 2.5}, [], "trunc_level"),
    ("sigdump", {"trunc_level": True}, [], "trunc_level"),
    ("sigdump", {"master_seed": 1.5}, [], "master_seed"),
    # type rule: float (finite number, not bool)
    ("calibrate", {"experiment": "cantor-calib", "grid": {"T": float("nan"), "n": 40}}, [],
     "grid.T"),
    ("calibrate", {"experiment": "cantor-calib", "grid": {"T": float("inf"), "n": 40}}, [],
     "grid.T"),
    ("calibrate", {"experiment": "cantor-calib", **_SMALL,
                   "regression": {"alpha": float("nan")}}, [], "regression.alpha"),
    ("calibrate", {"experiment": "heston-calib", **_SMALL, "model": {"rho": True}}, [],
     "model.rho"),
    ("sigdump", {"gamma": float("inf")}, [], "gamma"),
    # type rule: str
    ("calibrate", {"experiment": "cantor-calib", **_SMALL, "model": {"vol_kind": 1}}, [],
     "model.vol_kind"),
    # type rule: list, items typed like the reference's first item
    ("calibrate", {"experiment": "cantor-calib", **_SMALL, "model": {"s0": 0.0}}, [],
     "model.s0"),
    ("price", {"experiment": "cantor2-pricing", **_SMALL_PRICE,
               "model": {"nu": [0.2, "x"]}}, [], "model.nu[1]"),
    ("price", {"experiment": "heston2-pricing", **_SMALL_PRICE,
               "model": {"corr4": [1.0, 0.0]}}, [], "model.corr4[0]"),
    # the check experiment reads no sizes: they stay at its reference
    ("check", {"experiment": "check", "grid": {"n": 5, "T": 3.0},
               "samples": {"N_MC": 7}}, [], "grid.T"),
    ("check", {"experiment": "check", "grid": {"n": 5}}, [], "grid.n"),
    ("check", {"experiment": "check", "signature": {"trunc_level": 2}}, [],
     "signature.trunc_level"),
    ("check", {"experiment": "check", "regression": {"alpha": 1e-5}}, [],
     "regression.alpha"),
    ("check", {"experiment": "check", "samples": {"N_test": 3}}, [], "samples.N_test"),
    # a Cantor tanh volatility reads no nu
    ("calibrate", {"experiment": "cantor-calib", **_SMALL, "model": {"nu": "x"}}, [],
     "nu"),
    ("calibrate", {"experiment": "cantor-calib", **_SMALL, "model": {"nu": [0.2]}}, [],
     "nu"),
    # only the check experiment reads the check section
    ("calibrate", {"experiment": "cantor-calib", **_SMALL,
                   "check": {"inject_fault": "lasso-threshold"}}, [], "check.inject_fault"),
    ("price", {"experiment": "cantor2-pricing", **_SMALL_PRICE,
               "check": {"filter": "regress"}}, [], "check.filter"),
    # the one-asset Cantor model correlates no increments
    ("calibrate", {"experiment": "cantor-calib", **_SMALL, "model": {"rho": 0.9}}, [],
     "model.rho"),
])
def test_config_contract_exits_2_naming_the_key(tmp_path, capsys, command, payload,
                                                argv, key):
    if command == "sigdump":
        payload = {"path_csv": make_path_csv(tmp_path), **payload}
    cfg = write_config(tmp_path, "c.json", payload)
    assert main([command, "--config", cfg, *argv]) == 2
    captured = capsys.readouterr()
    assert f"'{key}'" in captured.err
    assert "Traceback" not in captured.err and not captured.out


@pytest.mark.parametrize("command, experiment, runner", [
    ("calibrate", "cantor-calib", "run_calibration"),
    ("price", "cantor2-pricing", "run_pricing")])
def test_run_out_of_memory_exits_2_with_the_allocation_message(tmp_path, capsys, monkeypatch,
                                                               command, experiment, runner):
    # the backstop for an allocation the run-size check does not foresee
    message = ("Unable to allocate 664. MiB for an array with shape (9331, 9331) "
               "and data type float64")

    def out_of_memory(config):
        raise MemoryError(message)

    monkeypatch.setattr(cli, runner, out_of_memory)
    cfg = write_config(tmp_path, "c.json", {"experiment": experiment})
    assert main([command, "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and not captured.out


def test_out_option_overrides_a_bad_out_dir(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {"experiment": "check", "out_dir": 5})
    out_dir = tmp_path / "reports"
    assert main(["check", "--config", cfg, "--filter", "payoffs",
                 "--out", str(out_dir)]) == 0
    capsys.readouterr()
    assert (out_dir / "check_report.json").is_file()


@pytest.mark.parametrize("command", ["calibrate", "price", "check", "sigdump"])
def test_out_that_cannot_be_written_exits_2(tmp_path, capsys, command):
    # a file in place of the output directory names the directory, where
    # every command used to end in an OSError traceback
    payload = {"calibrate": {"experiment": "cantor-calib", **_SMALL},
               "price": {"experiment": "cantor2-pricing", **_SMALL_PRICE},
               "check": {"experiment": "check", "check": {"filter": "payoffs"}},
               "sigdump": {"path_csv": make_path_csv(tmp_path)}}[command]
    cfg = write_config(tmp_path, "c.json", payload)
    blocker = tmp_path / "taken"
    blocker.write_text("")
    assert main([command, "--config", cfg, "--out", str(blocker)]) == 2
    err = capsys.readouterr().err
    assert f"'out_dir' {str(blocker)!r}" in err and "Traceback" not in err


@pytest.mark.parametrize("command, payload", [
    ("calibrate", {"experiment": "cantor-calib", **_SMALL}),
    ("price", {"experiment": "cantor2-pricing", **_SMALL_PRICE}),
    ("check", {"experiment": "check", "check": {"filter": "payoffs"}})])
def test_every_output_file_leads_with_its_stamp(tmp_path, capsys, command, payload):
    # each CSV starts with the stamp comment, each JSON object with the
    # stamp keys, and a run's files carry one stamp
    cfg = write_config(tmp_path, "c.json", payload)
    out_dir = tmp_path / "out"
    assert main([command, "--config", cfg, "--seed", "5", "--out", str(out_dir)]) == 0
    capsys.readouterr()
    stamps = set()
    for path in sorted(out_dir.iterdir()):
        if path.suffix == ".csv":
            first = path.read_text().splitlines()[0]
            assert re.fullmatch(r"# config_hash=[0-9a-f]{16} master_seed=5", first), path.name
            stamps.add(first[len("# config_hash="):][:16])
        else:
            data = json.loads(path.read_text())
            assert list(data)[:2] == ["config_hash", "master_seed"], path.name
            assert data["master_seed"] == 5
            stamps.add(data["config_hash"])
    assert len(stamps) == 1


def test_typed_walk_stores_numbers_as_their_reference_type():
    from gammasig.cli import _deep_merge
    from gammasig.experiments import ExperimentConfig, config_hash, default_config

    reference = default_config("heston2-pricing").to_json_dict()
    identity = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    merged = _deep_merge(reference, {"grid": {"T": 1},
                                     "model": {"corr4": identity}})
    assert type(merged["grid"]["T"]) is float
    assert all(type(x) is float for row in merged["model"]["corr4"] for x in row)
    assert type(merged["grid"]["n"]) is int
    config = ExperimentConfig.from_json_dict(_deep_merge(reference, {"grid": {"T": 1}}))
    assert config_hash(config) == config_hash(default_config("heston2-pricing"))


def test_no_arguments_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# calibrate / price happy paths
# ---------------------------------------------------------------------------


def test_calibrate_reduced_run_with_outputs(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {
        "experiment": "cantor-calib",
        "grid": {"n": 120},
        "samples": {"N_test": 3},
    })
    out_dir = tmp_path / "results"
    code = main(["calibrate", "--config", cfg, "--seed", "7",
                 "--out", str(out_dir)])
    assert code == 0
    out = capsys.readouterr().out
    assert "experiment cantor-calib" in out
    assert "master_seed=7" in out
    assert "strat" in out and "ito" in out
    summary = (out_dir / "mse_summary.csv").read_text().splitlines()
    assert summary[0].startswith("# config_hash=")
    assert summary[0].endswith("master_seed=7")


def test_price_reduced_run(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {
        "experiment": "cantor2-pricing",
        "grid": {"n": 40},
        "samples": {"N_train": 120, "N_test": 60, "N_MC": 200},
    })
    assert main(["price", "--config", cfg]) == 0
    out = capsys.readouterr().out
    for label in ("RVswap_1", "RVcall_2", "CovSwap_12", "CorrCall_12"):
        assert label in out
    assert "MC" in out and "strat" in out and "ito" in out


# ---------------------------------------------------------------------------
# sigdump
# ---------------------------------------------------------------------------


def make_path_csv(tmp_path) -> str:
    p = SamplePath([0.0, 0.5, 1.0], [0.0, 1.0, 3.0], Alphabet(1))
    target = str(tmp_path / "path.csv")
    write_path_csv(p, target)
    return target


def test_sigdump_stdout(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {
        "path_csv": make_path_csv(tmp_path),
        "gamma": 0.0,
        "trunc_level": 2,
    })
    assert main(["sigdump", "--config", cfg]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert "master_seed=0" in lines[0]
    assert lines[1] == "t,word,coeff"
    assert len(lines) == 2 + 3 * 3
    last = lines[-1].split(",")
    assert last[1] == "1.1" and float(last[2]) == 2.0


def test_sigdump_to_directory_with_augment(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {
        "path_csv": make_path_csv(tmp_path),
        "gamma": 0.5,
        "trunc_level": 1,
        "augment": {"time": True, "brackets": True},
    })
    out_dir = tmp_path / "dump"
    assert main(["sigdump", "--config", cfg, "--seed", "3",
                 "--out", str(out_dir)]) == 0
    capsys.readouterr()
    lines = (out_dir / "signature.csv").read_text().splitlines()
    assert "master_seed=3" in lines[0]
    # augmented alphabet (t, x1, [1,1]) at level 1: words "", 0, 1, 2
    words = {line.split(",")[1] for line in lines[2:]}
    assert words == {"", "0", "1", "2"}


def test_sigdump_requires_config_and_path(tmp_path, capsys):
    assert main(["sigdump"]) == 2
    assert "path_csv" in capsys.readouterr().err
    cfg = write_config(tmp_path, "c.json", {"gamma": 0.5})
    assert main(["sigdump", "--config", cfg]) == 2
    assert "path_csv" in capsys.readouterr().err
    cfg2 = write_config(tmp_path, "c2.json", {"path_csv": "/no/such.csv"})
    assert main(["sigdump", "--config", cfg2]) == 2
    assert "cannot read path CSV" in capsys.readouterr().err


def test_sigdump_bad_gamma(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {
        "path_csv": make_path_csv(tmp_path),
        "gamma": -0.5,
    })
    assert main(["sigdump", "--config", cfg]) == 2
    assert "gamma" in capsys.readouterr().err.lower()


def _cli_in_subprocess(command: str, cfg: str, address_space: int | None = None):
    """``gammasig <command> --config <cfg>`` in a fresh interpreter that
    imports this checkout's package, with its own soft address-space limit
    (``RLIMIT_AS``) of ``address_space`` bytes if given."""
    import os
    import resource
    import subprocess
    import sys

    import gammasig
    src = os.path.dirname(os.path.dirname(os.path.abspath(gammasig.__file__)))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def limit():
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        resource.setrlimit(resource.RLIMIT_AS, (address_space, hard))

    return subprocess.run([sys.executable, "-m", "gammasig.cli", command, "--config", cfg],
                          capture_output=True, text=True, env=env, timeout=120,
                          preexec_fn=None if address_space is None else limit)


@pytest.mark.parametrize("command, payload", [
    ("sigdump", {"trunc_level": 40, "augment": {"time": True}}),
    ("calibrate", {"experiment": "cantor-calib", "grid": {"n": 20},
                   "samples": {"N_test": 2}, "signature": {"trunc_level": 40}}),
])
def test_trunc_level_too_large_to_run_exits_2(tmp_path, command, payload):
    # the widest signature array (2**40 and 3**40 columns) is sized from the
    # config before anything is allocated, so the run needs no memory cap;
    # allocating it would end in a MemoryError (exit 1) or exhaust the
    # machine's memory
    if command == "sigdump":
        payload = {"path_csv": make_path_csv(tmp_path), **payload}
    cfg = write_config(tmp_path, "c.json", payload)
    proc = _cli_in_subprocess(command, cfg)
    assert proc.returncode == 2, proc.stderr
    assert "trunc_level" in proc.stderr and "too large to run" in proc.stderr
    assert "Traceback" not in proc.stderr and not proc.stdout


@pytest.mark.parametrize("command, payload, named", [
    pytest.param("price", {"experiment": "heston2-pricing", "grid": {"n": 10 ** 9}},
                 "'grid.n' 1000000000", id="pricing-chunk-draws"),
    pytest.param("calibrate", {"experiment": "heston-calib",
                               "samples": {"N_test": 10 ** 11}},
                 "'samples.N_test' 100000000000", id="calibration-test-draws"),
    pytest.param("price", {"experiment": "heston2-pricing",
                           "samples": {"N_train": 2 * 10 ** 12}},
                 "'samples.N_train' 2000000000000", id="pricing-signatures"),
    pytest.param("calibrate", {"experiment": "cantor-calib", "grid": {"n": 4 * 10 ** 11}},
                 "'grid.n' 400000000000", id="calibration-trajectory"),
])
def test_run_size_too_large_to_run_exits_2(tmp_path, command, payload, named):
    # a run's largest arrays (a chunk's draws, the calibration test paths'
    # draws, the signature arrays) are sized from the config before anything
    # is allocated, and the message names the key the offending size grows
    # with; allocating them would end in a MemoryError traceback (exit 1).
    # Every size is terabytes or more, beyond any machine's memory
    cfg = write_config(tmp_path, "c.json", payload)
    proc = _cli_in_subprocess(command, cfg)
    assert proc.returncode == 2, proc.stderr
    assert "too large to run" in proc.stderr and named in proc.stderr, proc.stderr
    assert "Traceback" not in proc.stderr and not proc.stdout


def test_run_size_beyond_the_address_space_limit_exits_2(tmp_path):
    # under a 1.5 GB address-space limit, set on the child process alone, a
    # 2.2 GB training trajectory cannot be allocated although the machine's
    # physical memory could hold it: the size check bounds it by the limit
    # and names it, where the run used to end in a MemoryError traceback
    cfg = write_config(tmp_path, "c.json", {"experiment": "cantor-calib",
                                            "grid": {"n": 30000000},
                                            "samples": {"N_test": 1}})
    proc = _cli_in_subprocess("calibrate", cfg, address_space=1_536_000_000)
    assert proc.returncode == 2, proc.stderr
    assert "'grid.n' 30000000" in proc.stderr and "RLIMIT_AS" in proc.stderr, proc.stderr
    assert "Traceback" not in proc.stderr and not proc.stdout


@pytest.mark.parametrize("command, payload, address_space, array", [
    pytest.param("price", {"experiment": "cantor2-pricing", "grid": {"n": 2},
                           "signature": {"trunc_level": 6},
                           "samples": {"N_train": 3, "N_test": 1, "N_MC": 2}},
                 3_000_000_000, "the ridge Gram, 55987**2", id="pricing-ridge-gram"),
    pytest.param("price", {"experiment": "cantor2-pricing", "grid": {"n": 2},
                           "signature": {"trunc_level": 5},
                           "samples": {"N_train": 3, "N_test": 1, "N_MC": 2}},
                 1_200_000_000, "the ridge Gram, 9331**2", id="pricing-ridge-gram-and-factor"),
    pytest.param("calibrate", {"experiment": "heston-calib", "grid": {"n": 2},
                               "signature": {"trunc_level": 9}, "samples": {"N_test": 1}},
                 3_000_000_000, "the lasso Gram, 29524**2", id="calibration-lasso-gram"),
    pytest.param("calibrate", {"experiment": "heston-calib", "grid": {"n": 2},
                               "signature": {"trunc_level": 8}, "samples": {"N_test": 1}},
                 2_000_000_000, "the functionals' dense coefficients, 29524 x 9841",
                 id="calibration-dense-coefficients"),
    pytest.param("calibrate", {"experiment": "heston-calib", "grid": {"n": 9840},
                               "signature": {"trunc_level": 8}, "samples": {"N_test": 1}},
                 2_000_000_000,
                 "the lasso Gram with its active-set factor and columns, 9841 x 29523",
                 id="calibration-lasso-active-set"),
])
def test_run_size_counts_the_grams_and_dense_coefficients(tmp_path, command, payload,
                                                          address_space, array):
    # under an address-space limit set on the child process alone, the
    # 23.4 GiB ridge Gram of the joint left-point row (level 6), the 6.5 GiB
    # lasso Gram of heston-calib's 29524 functionals (level 9) and the
    # 2.2 GiB dense coefficients of its 9841 functionals (level 8, whose
    # two 0.7 GiB Gram arrays fit) cannot be allocated: the size check names
    # them, where the runs used to end in a MemoryError traceback.  Each
    # solver holds two p x p arrays: at level 5 one 0.65 GiB ridge Gram fits
    # under 1.2 GB, but the Gram and its Cholesky factor do not.  With 9841
    # training rows the lasso's active set can take all 9841 columns, and its
    # Gram, factor and active columns (2.2 GiB) are named before the dense
    # coefficients
    cfg = write_config(tmp_path, "c.json", payload)
    proc = _cli_in_subprocess(command, cfg, address_space=address_space)
    assert proc.returncode == 2, proc.stderr
    assert "'signature.trunc_level'" in proc.stderr and array in proc.stderr, proc.stderr
    assert "Traceback" not in proc.stderr and not proc.stdout


def test_pricing_warning_goes_to_stderr(tmp_path, capsys):
    # paths rejected for a non-positive price are a warning on stderr, like
    # the lasso's; stdout keeps the results alone
    cfg = write_config(tmp_path, "c.json", {
        "experiment": "cantor2-pricing", "model": {**_LINEAR_CANTOR, "nu": [1.0, 1.0]},
        "grid": {"n": 10}, "samples": {"N_train": 20, "N_test": 10, "N_MC": 20}})
    assert main(["price", "--config", cfg]) == 0
    captured = capsys.readouterr()
    assert captured.err == "warning: 3 paths rejected, 0 degenerate correlations -> 0\n"
    assert "warning" not in captured.out and "RVswap_1" in captured.out


def test_entry_point_installed():
    import shutil
    assert shutil.which("gammasig") is not None


def _loaded_by_cli_import(module: str) -> bool:
    """Whether ``import gammasig.cli`` in a fresh interpreter that imports
    this checkout's package loads ``module``."""
    import os
    import subprocess
    import sys

    import gammasig
    src = os.path.dirname(os.path.dirname(os.path.abspath(gammasig.__file__)))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys, gammasig.cli; print({module!r} in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=60, check=True)
    return proc.stdout.strip() == "True"


def test_cli_import_does_not_load_scipy():
    # the CLI runs on numpy alone; importing scipy would roughly double the
    # start-up time of every command
    assert not _loaded_by_cli_import("scipy")


def test_cli_import_does_not_load_concurrent_futures():
    # no run imports it: the fan-out forks its workers with os.fork and
    # reads their results from pipes; loading it (with logging) at import
    # would add about 4 ms to the start-up of every command
    assert not _loaded_by_cli_import("concurrent.futures")


def test_cli_import_does_not_load_multiprocessing():
    # the fan-out forks with os.fork and imports no multiprocessing, so the
    # start-up of every command does not pay for it
    assert not _loaded_by_cli_import("multiprocessing")


def test_package_namespace_names_resolve_to_one_module():
    # each public name is exported by exactly one module's __all__
    import gammasig
    modules = [gammasig.tensor, gammasig.signature, gammasig.models,
               gammasig.regress, gammasig.payoffs, gammasig.experiments]
    for name in gammasig.__all__:
        owners = [m.__name__ for m in modules if name in m.__all__]
        assert len(owners) == (0 if name == "__version__" else 1), (name, owners)
        assert hasattr(gammasig, name)
    assert len(set(gammasig.__all__)) == len(gammasig.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(gammasig, name) is getattr(module, name)
