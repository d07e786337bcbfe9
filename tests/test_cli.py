"""Tests for the command line interface, driven through ``main(argv)``."""
from __future__ import annotations

import json

import numpy as np
import pytest

from gammasig import Alphabet, SamplePath, write_path_csv
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
    assert "FAIL regress/" in out
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


def test_entry_point_installed():
    import shutil
    assert shutil.which("gammasig") is not None
