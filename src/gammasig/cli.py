"""Command line entry point.

Subcommands::

    gammasig check     [--config c.json] [--filter MODULE] [--seed S] [--out DIR]
    gammasig calibrate  --config c.json  [--seed S] [--out DIR]
    gammasig price      --config c.json  [--seed S] [--out DIR]
    gammasig sigdump    --config c.json  [--seed S] [--out DIR]

Config files are JSON.  For ``calibrate``/``price``/``check`` the file is
merged over the named experiment's reference configuration, so a minimal
file like ``{"experiment": "heston-calib"}`` runs the full default setup and
any present key overrides it.  The reference configuration is the schema:
a key it does not have is a configuration error, and every value must have
the JSON type of the reference value (an integer is not a bool or a
fractional number, a float is finite).  ``--seed`` overrides ``master_seed``
and ``--out`` the output directory.

``sigdump`` reads a sampled path (CSV columns ``t,x1,..,xd``), optionally
extends it by time/bracket columns, and dumps the gamma-signature as
``t,word,coeff`` rows.  Its config, merged the same way over its reference:
``path_csv`` (required), ``gamma`` (default 0), ``trunc_level`` (default 2),
``augment``: {"time": bool, "brackets": bool, "scaled_brackets": bool} (all
default false), ``master_seed`` (default 0), ``out_dir`` (default stdout).

Exit codes: 0 success, 1 check failure, 2 configuration error (a run that
runs out of memory counts as one: it exits 2 with numpy's allocation message,
and so does an output directory that cannot be written).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

from .experiments import (
    CALIBRATION_IDS,
    EXPERIMENT_IDS,
    PRICING_IDS,
    SCHEMES,
    ExperimentConfig,
    check_array_size,
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


#: JSON name of each reference leaf type, for error messages.
_JSON_TYPES = {bool: "a boolean", int: "an integer", float: "a finite number",
               str: "a string", list: "an array", tuple: "an array",
               dict: "an object"}


def _deep_merge(base: dict, override: dict, prefix: str = "") -> dict:
    """``override`` merged over the reference ``base``, which is the schema:
    a key ``base`` does not have is a configuration error, and every value
    must have the JSON type of the reference value (see :func:`_typed`)."""
    out = dict(base)
    for key, value in override.items():
        dotted = prefix + key
        if key not in base:
            raise ConfigError(f"unknown config key {dotted!r}")
        out[key] = _typed(base[key], value, dotted)
    return out


def _typed(ref, value, dotted: str):
    """``value`` checked against the reference value ``ref`` at ``dotted``:
    an object is merged, an array's items match the reference's first item,
    an integer must be a JSON integer (not a bool, ``2.0`` or ``2.7``), a
    float is any finite number (returned as a float), and a null reference
    accepts anything (it is checked where it is used)."""
    if ref is None:
        return value
    kind = type(ref)
    if kind is dict and isinstance(value, dict):
        return _deep_merge(ref, value, dotted + ".")
    if kind in (list, tuple) and isinstance(value, list):
        return [_typed(ref[0], item, f"{dotted}[{i}]") for i, item in enumerate(value)]
    if kind is float:
        # the comparison is exact for ints of any size and false for NaN
        if type(value) in (int, float) and abs(value) <= sys.float_info.max:
            return float(value)
    elif type(value) is kind:
        return value
    raise ConfigError(f"config key {dotted!r} must be {_JSON_TYPES[kind]}, "
                      f"got {json.dumps(value)}")


def _merged_config(args, reference) -> tuple[dict, dict]:
    """The ``--config`` JSON object (empty without the option) and its merge
    over the command's reference configuration ``reference(data)``, with
    ``--seed`` and ``--out`` applied on top."""
    data: dict = {}
    if args.config is not None:
        data = _load_json(args.config)
        if not isinstance(data, dict):
            raise ConfigError("config root must be a JSON object")
    merged = _deep_merge(reference(data), data)
    if args.seed is not None:
        merged["master_seed"] = args.seed
    if args.out is not None:
        merged["out_dir"] = args.out
    return data, merged


def _experiment_config(args, fallback_experiment: str | None = None) -> ExperimentConfig:
    """Config file merged over the experiment's reference defaults, with
    ``--seed``, ``--out`` and ``--filter`` applied on top."""
    def reference(data: dict) -> dict:
        experiment = data.get("experiment", fallback_experiment)
        if experiment is None:
            raise ConfigError("config must name an \"experiment\"")
        if experiment not in EXPERIMENT_IDS:
            raise ConfigError(f"unknown experiment {experiment!r}; "
                              f"choose from {EXPERIMENT_IDS}")
        return default_config(experiment).to_json_dict()

    _, merged = _merged_config(args, reference)
    if getattr(args, "filter", None) is not None:
        merged["check"] = {**merged["check"], "filter": args.filter}
    try:
        return ExperimentConfig.from_json_dict(merged)
    except (ValueError, TypeError, KeyError) as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc


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
    if config.experiment not in CALIBRATION_IDS:
        raise ConfigError(f"{config.experiment!r} is not a calibration experiment")
    try:
        report = run_calibration(config)
    except (ValueError, MemoryError) as exc:
        raise ConfigError(str(exc)) from exc
    print(f"experiment {config.experiment}  config_hash={report['config_hash']}  "
          f"master_seed={config.master_seed}")
    for scheme in SCHEMES:
        entry = report["schemes"][scheme]
        print(f"  {scheme:>5}: in-sample MSE {entry['in_sample_mse']:.6e}  "
              f"out-of-sample MSE {entry['out_sample_mse']:.6e}")
    if config.out_dir:
        print(f"wrote mse_summary.csv, trajectory.csv, fit_*.json to {config.out_dir}")
    return 0


def _cmd_price(args) -> int:
    config = _experiment_config(args)
    if config.experiment not in PRICING_IDS:
        raise ConfigError(f"{config.experiment!r} is not a pricing experiment")
    try:
        report = run_pricing(config)
    except (ValueError, MemoryError) as exc:
        raise ConfigError(str(exc)) from exc
    print(f"experiment {config.experiment}  config_hash={report['config_hash']}  "
          f"master_seed={config.master_seed}")
    if report["rejected_paths"] or report["degenerate_corr_paths"]:
        print(f"warning: {report['rejected_paths']} paths rejected, "
              f"{report['degenerate_corr_paths']} degenerate correlations -> 0",
              file=sys.stderr)
    for entry in report["payoffs"]:
        prices = "  ".join(f"{scheme} {entry[scheme]['price']:+.6f}" for scheme in SCHEMES)
        print(f"  {entry['payoff']:>11}: MC {entry['mc_price']:+.6f} "
              f"[{entry['ci_lo']:+.6f}, {entry['ci_hi']:+.6f}]  {prices}")
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


def _cmd_sigdump(args) -> int:
    if args.config is None:
        raise ConfigError("sigdump requires --config with a \"path_csv\" key")
    data, config = _merged_config(args, lambda data: _SIGDUMP_DEFAULTS)
    if not isinstance(config["path_csv"], str):
        raise ConfigError("sigdump config must contain 'path_csv', a file name")
    if not isinstance(config["out_dir"], (str, type(None))):
        raise ConfigError("config key 'out_dir' must be a directory name or null")
    seed = config["master_seed"]
    if not 0 <= seed < 2 ** 64:
        raise ConfigError("config key 'master_seed' must fit in an unsigned "
                          f"64-bit integer, got {seed}")
    from .signature import augment_path, gamma_signature, read_path_csv, write_sig_csv
    try:
        path = read_path_csv(config["path_csv"])
    except OSError as exc:
        raise ConfigError(f"cannot read path CSV: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"malformed path CSV: {exc}") from exc
    augment = config["augment"]
    try:
        path = augment_path(path, config["gamma"],
                            include_time=augment["time"],
                            include_brackets=augment["brackets"],
                            scaled_brackets=augment["scaled_brackets"])
        check_array_size("the signature trajectory",
                         (("trunc_level", config["trunc_level"]),),
                         ((len(path.times), 1), (path.dim, config["trunc_level"])))
        traj = gamma_signature(path, config["gamma"], config["trunc_level"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    stamp_source = dict(data)
    stamp_source["master_seed"] = seed
    digest = hashlib.sha256(
        json.dumps(stamp_source, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()[:16]
    comment = f"config_hash={digest} master_seed={seed}"
    if not config["out_dir"]:
        write_sig_csv(traj, sys.stdout, header_comment=comment)
        return 0
    target = os.path.join(config["out_dir"], "signature.csv")
    try:
        os.makedirs(config["out_dir"], exist_ok=True)
        write_sig_csv(traj, target, header_comment=comment)
    except OSError as exc:
        raise ConfigError(f"cannot write to 'out_dir' {config['out_dir']!r}: {exc}") from exc
    print(f"wrote {target}")
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
