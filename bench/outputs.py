"""Digests and correctness checks of the stamped files one CLI run writes."""
from __future__ import annotations

import csv
import hashlib
import json
import math
import os


def digest(out_dir: str) -> str:
    """sha256 over the names and bytes of every file in ``out_dir``."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()


def out_bytes(out_dir: str) -> int:
    return sum(os.path.getsize(os.path.join(out_dir, n)) for n in os.listdir(out_dir))


def _csv_rows(path: str) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _numbers(value):
    if isinstance(value, bool):
        return
    if isinstance(value, (int, float)):
        yield float(value)
    elif isinstance(value, dict):
        for v in value.values():
            yield from _numbers(v)
    elif isinstance(value, list):
        for v in value:
            yield from _numbers(v)


def _all_finite(out_dir: str) -> bool:
    for name in os.listdir(out_dir):
        path = os.path.join(out_dir, name)
        if name.endswith(".json"):
            with open(path, encoding="utf-8") as fh:
                values = list(_numbers(json.load(fh)))
        else:
            values = []
            for row in _csv_rows(path):
                for cell in row.values():
                    try:
                        values.append(float(cell))
                    except ValueError:
                        pass  # a label such as a payoff or scheme name
        if not all(math.isfinite(v) for v in values):
            return False
    return True


def _fits(out_dir: str) -> dict:
    fits = {}
    for scheme in ("strat", "ito"):
        with open(os.path.join(out_dir, f"fit_{scheme}.json"), encoding="utf-8") as fh:
            fits[scheme] = json.load(fh)
    return fits


def check_run(experiment: str, out_dir: str) -> tuple[list[tuple[str, bool, bool]], dict]:
    """Checks of one run's outputs and the facts recorded beside them.

    Each check is ``(name, passed, hard)``.  A hard check failing makes the
    run incorrect.  The per-payoff CI checks are soft one by one: criterion 7
    asks for at least 7 of 8 payoffs inside the CI, and that is the hard
    check, so one statistical miss counts as a failed check without marking
    the outputs wrong.  The criterion-5 MSE bounds are soft for the same
    reason: the criterion is stated for master seed 0, and on other seeds
    they are a statistical target that a seed can miss (master seed 775
    does).
    """
    checks = [("finite", _all_finite(out_dir), True)]
    info: dict = {}
    if experiment in ("heston-calib", "cantor-calib"):
        rows = {r["scheme"]: r for r in _csv_rows(os.path.join(out_dir, "mse_summary.csv"))}
        mse = {s: (float(r["in_sample_mse"]), float(r["out_sample_mse"]))
               for s, r in rows.items()}
        if experiment == "heston-calib":
            ok = all(i <= 1e-5 and o <= 1e-3 for i, o in mse.values())
            checks.append(("criterion5_mse_bounds", ok, False))
        else:
            info["ito_over_strat_out_mse"] = mse["ito"][1] / mse["strat"][1]
        info["lasso"] = {s: {"n_iter": f["diagnostics"]["n_iter"],
                             "converged": f["diagnostics"]["converged"]}
                         for s, f in _fits(out_dir).items()}
    else:
        inside = []
        for r in _csv_rows(os.path.join(out_dir, "prices.csv")):
            if r["scheme"] == "ito":
                ok = float(r["ci_lo"]) <= float(r["price"]) <= float(r["ci_hi"])
                inside.append(ok)
                checks.append((f"ci_{r['payoff']}", ok, False))
        checks.append(("criterion7_ci_coverage", sum(inside) >= 7, True))
    return checks, info
