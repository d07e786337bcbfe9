"""The benchmark's workloads: which CLI experiments one round runs, at which
sizes and master seeds, all derived from the benchmark's ``--seed``.

This module imports nothing from gammasig at import time, so the set-up
probe can load it before it starts timing the program's import.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass

#: Master seeds per ``calib`` round.  The lasso's sweep count, and with it
#: the calibration wall time, depends strongly on the master seed (most
#: heston-calib fits stop at the 100 000-sweep cap, some converge after
#: 40 000), so one round averages over a panel of seeds instead of one.  A
#: round of seven takes about 55 s on two cores, which is as long as the
#: benchmark's time budget allows; the machine's speed drifts over tens of
#: seconds, and the longer round averages more of that drift away.
CALIB_PANEL = 7

#: Sizes are pinned here, not left to the program's defaults, so that a
#: change of defaults cannot change the workload.
CALIB_SIZE = dict(grid_n=2000, n_test=1000, trunc_level=2)
#: Criterion-7 sizes of the pricing experiments.
PRICE_SIZE = dict(grid_n=252, n_train=3000, n_test=1000, n_mc=5000, trunc_level=2)
DEEP_SIZE = dict(grid_n=252, n_train=3000, n_test=1000, n_mc=2000, trunc_level=3)


@dataclass(frozen=True)
class Run:
    """One CLI invocation: ``gammasig <command> --config <file> --seed <master_seed>``."""

    command: str
    experiment: str
    master_seed: int
    overrides: dict

    @property
    def key(self) -> str:
        return f"{self.experiment}-s{self.master_seed}"

    @property
    def paths(self) -> int:
        """Paths the experiment simulates."""
        o = self.overrides
        if self.command == "calibrate":
            return 1 + o["n_test"]
        return o["n_train"] + o["n_test"] + o["n_mc"]


def _calib(seed: int) -> list[Run]:
    return [Run("calibrate", exp, (seed * CALIB_PANEL + i) % 2 ** 64, dict(CALIB_SIZE))
            for i in range(CALIB_PANEL)
            for exp in ("heston-calib", "cantor-calib")]


def _price(seed: int) -> list[Run]:
    return [Run("price", exp, seed, dict(PRICE_SIZE))
            for exp in ("heston2-pricing", "cantor2-pricing")]


def _price_deep(seed: int) -> list[Run]:
    return [Run("price", "cantor2-pricing", seed, dict(DEEP_SIZE))]


#: Workload name -> the runs of one round at a seed.  Every round of a
#: benchmark run repeats them; why each workload exists is in BENCHMARK.json.
#: ``price-deep`` is run by hand only: BENCHMARK.json leaves it out so that
#: ``calib`` can have the longer runs it needs (see NOTES.md).
WORKLOADS = {"calib": _calib, "price": _price, "price-deep": _price_deep}


def build_configs(runs: list[Run], directory: str) -> list[str]:
    """Build each run's configuration through gammasig's own API and write it
    as the JSON file the CLI reads; returns the file paths."""
    from gammasig.experiments import default_config

    os.makedirs(directory, exist_ok=True)
    files = []
    for run in runs:
        data = default_config(run.experiment, master_seed=run.master_seed,
                              **run.overrides).to_json_dict()
        data.pop("out_dir")
        path = os.path.join(directory, f"{run.key}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        files.append(path)
    return files
