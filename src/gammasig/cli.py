"""Command line entry point.

Subcommands::

    gammasig check     [--config c.json] [--filter MODULE] [--seed S] [--out DIR]
    gammasig calibrate  --config c.json  [--seed S] [--out DIR]
    gammasig price      --config c.json  [--seed S] [--out DIR]
    gammasig sigdump    --config c.json  [--seed S] [--out DIR]

Config files are JSON.  For ``calibrate``/``price``/``check`` the file is
merged over the named experiment's reference configuration, so a minimal
file like ``{"experiment": "heston-calib"}`` runs the full default setup and
any present key overrides it.  A key the reference configuration does not
have, or a non-object value where it has an object, is a configuration
error.  ``--seed`` overrides ``master_seed`` and ``--out`` the output
directory.

``sigdump`` reads a sampled path (CSV columns ``t,x1,..,xd``), optionally
extends it by time/bracket columns, and dumps the gamma-signature as
``t,word,coeff`` rows.  Its config, merged the same way over its reference:
``path_csv`` (required), ``gamma`` (default 0), ``trunc_level`` (default 2),
``augment``: {"time": bool, "brackets": bool, "scaled_brackets": bool} (all
default false), ``master_seed`` (default 0), ``out_dir`` (default stdout).

Exit codes: 0 success, 1 check failure, 2 configuration error.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys

from .experiments import (
    EXPERIMENT_IDS,
    ExperimentConfig,
    default_config,
    run_calibration,
    run_checks,
    run_pricing,
)

__all__ = ["main"]


class ConfigError(Exception):
    """Anything wrong with user-supplied configuration (exit code 2)."""


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path!r} is not valid JSON: {exc}") from exc


def _deep_merge(base: dict, override: dict, prefix: str = "") -> dict:
    """``override`` merged over the reference ``base``.  A key ``base`` does
    not have, or a non-object value where ``base`` has an object, is a
    configuration error naming its dotted path; a key whose reference value
    is not an object accepts any value."""
    out = dict(base)
    for key, value in override.items():
        dotted = prefix + key
        if key not in base:
            raise ConfigError(f"unknown config key {dotted!r}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {dotted!r} must be a JSON object")
            value = _deep_merge(base[key], value, dotted + ".")
        out[key] = value
    return out


def _experiment_config(args, fallback_experiment: str | None = None) -> ExperimentConfig:
    """Config file merged over the experiment's reference defaults."""
    data: dict = {}
    if args.config is not None:
        data = _load_json(args.config)
        if not isinstance(data, dict):
            raise ConfigError("config root must be a JSON object")
    experiment = data.get("experiment", fallback_experiment)
    if experiment is None:
        raise ConfigError("config must name an \"experiment\"")
    if experiment not in EXPERIMENT_IDS:
        raise ConfigError(f"unknown experiment {experiment!r}; "
                          f"choose from {EXPERIMENT_IDS}")
    merged = _deep_merge(default_config(experiment).to_json_dict(), data)
    try:
        config = ExperimentConfig.from_json_dict(merged)
    except (ValueError, TypeError, KeyError) as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc
    if args.seed is not None:
        config = config.with_seed(args.seed)
    if args.out is not None:
        config = config.with_out_dir(args.out)
    if getattr(args, "filter", None) is not None:
        config = dataclasses.replace(config, check_filter=args.filter)
    return config


def _cmd_check(args) -> int:
    config = _experiment_config(args, fallback_experiment="check")
    try:
        report = run_checks(config)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    for module, entry in report["modules"].items():
        for name, check in entry["checks"].items():
            mark = "PASS" if check["passed"] else "FAIL"
            print(f"{mark} {module}/{name}: {check['detail']}")
    if config.out_dir:
        os.makedirs(config.out_dir, exist_ok=True)
        with open(os.path.join(config.out_dir, "check_report.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    n_checks = sum(len(e["checks"]) for e in report["modules"].values())
    if report["passed"]:
        print(f"all {n_checks} checks passed")
        return 0
    failed = sum(1 for e in report["modules"].values()
                 for c in e["checks"].values() if not c["passed"])
    print(f"{failed} of {n_checks} checks FAILED")
    return 1


def _cmd_calibrate(args) -> int:
    config = _experiment_config(args)
    if config.experiment not in ("heston-calib", "cantor-calib"):
        raise ConfigError(f"{config.experiment!r} is not a calibration experiment")
    report = run_calibration(config)
    print(f"experiment {config.experiment}  config_hash={report['config_hash']}  "
          f"master_seed={config.master_seed}")
    for scheme in ("strat", "ito"):
        entry = report["schemes"][scheme]
        print(f"  {scheme:>5}: in-sample MSE {entry['in_sample_mse']:.6e}  "
              f"out-of-sample MSE {entry['out_sample_mse']:.6e}")
    if config.out_dir:
        print(f"wrote mse_summary.csv, trajectory.csv, fit_*.json to {config.out_dir}")
    return 0


def _cmd_price(args) -> int:
    config = _experiment_config(args)
    if config.experiment not in ("heston2-pricing", "cantor2-pricing"):
        raise ConfigError(f"{config.experiment!r} is not a pricing experiment")
    report = run_pricing(config)
    print(f"experiment {config.experiment}  config_hash={report['config_hash']}  "
          f"master_seed={config.master_seed}")
    if report["rejected_paths"] or report["degenerate_corr_paths"]:
        print(f"  warning: {report['rejected_paths']} paths rejected, "
              f"{report['degenerate_corr_paths']} degenerate correlations -> 0")
    for entry in report["payoffs"]:
        print(f"  {entry['payoff']:>11}: MC {entry['mc_price']:+.6f} "
              f"[{entry['ci_lo']:+.6f}, {entry['ci_hi']:+.6f}]  "
              f"strat {entry['strat']['price']:+.6f}  "
              f"ito {entry['ito']['price']:+.6f}")
    if config.out_dir:
        print(f"wrote prices.csv, mse_summary.csv, fit_*.json to {config.out_dir}")
    return 0


#: Reference configuration of ``sigdump``; ``path_csv`` is required.
_SIGDUMP_DEFAULTS = {
    "path_csv": None,
    "gamma": 0.0,
    "trunc_level": 2,
    "augment": {"time": False, "brackets": False, "scaled_brackets": False},
    "master_seed": 0,
    "out_dir": None,
}


def _config_value(config: dict, key: str, kind):
    """``kind(config[key])``, a conversion failure being a configuration
    error that names the key."""
    try:
        return kind(config[key])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config key {key!r}: {exc}") from exc


def _cmd_sigdump(args) -> int:
    if args.config is None:
        raise ConfigError("sigdump requires --config with a \"path_csv\" key")
    data = _load_json(args.config)
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    config = _deep_merge(_SIGDUMP_DEFAULTS, data)
    if not isinstance(config["path_csv"], str):
        raise ConfigError("sigdump config must contain 'path_csv', a file name")
    if not isinstance(config["out_dir"], (str, type(None))):
        raise ConfigError("config key 'out_dir' must be a directory name or null")
    from .signature import augment_path, gamma_signature, read_path_csv, write_sig_csv
    try:
        path = read_path_csv(config["path_csv"])
    except OSError as exc:
        raise ConfigError(f"cannot read path CSV: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"malformed path CSV: {exc}") from exc
    gamma = _config_value(config, "gamma", float)
    trunc_level = _config_value(config, "trunc_level", int)
    seed = int(args.seed) if args.seed is not None else _config_value(config, "master_seed", int)
    augment = config["augment"]
    try:
        path = augment_path(path, gamma,
                            include_time=bool(augment["time"]),
                            include_brackets=bool(augment["brackets"]),
                            scaled_brackets=bool(augment["scaled_brackets"]))
        traj = gamma_signature(path, gamma, trunc_level)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    stamp_source = dict(data)
    stamp_source["master_seed"] = seed
    digest = hashlib.sha256(
        json.dumps(stamp_source, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()[:16]
    comment = f"config_hash={digest} master_seed={seed}"
    out_dir = args.out if args.out is not None else config["out_dir"]
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        target = os.path.join(out_dir, "signature.csv")
        write_sig_csv(traj, target, header_comment=comment)
        print(f"wrote {target}")
    else:
        write_sig_csv(traj, sys.stdout, header_comment=comment)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gammasig",
        description="Discrete gamma-signatures: invariant checks, calibration "
                    "and pricing experiments, signature dumps.")
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "check": (_cmd_check, "run the per-module invariant suites"),
        "calibrate": (_cmd_calibrate, "fit signature models to one trajectory"),
        "price": (_cmd_price, "regress payoffs and compare with Monte Carlo"),
        "sigdump": (_cmd_sigdump, "dump the gamma-signature of a path CSV"),
    }
    for name, (fn, help_text) in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="FILE", help="JSON configuration file")
        p.add_argument("--seed", type=int, metavar="U64",
                       help="override master_seed")
        p.add_argument("--out", metavar="DIR", help="output directory")
        if name == "check":
            p.add_argument("--filter", metavar="MODULE",
                           help="restrict checks to one module")
        p.set_defaults(fn=fn)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
