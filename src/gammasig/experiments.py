"""Experiment harness: signature-model calibration and payoff pricing.

Two calibration experiments fit a price trajectory as a fixed linear
functional of a driver signature, once per evaluation scheme:

* ``strat``: gamma = 1/2 (mid-point) signature of the time-extended driver;
* ``ito``: gamma = 0 (left-point) signature, on a bracket-augmented driver
  where the model calls for one.

Two pricing experiments ridge-learn swap/call payoffs from end-point
signatures of log-price paths (level 2), again once per scheme, and compare
the regressed prices against the Monte Carlo price with a 95% confidence
interval.

Everything is deterministic given (config, master_seed): simulation uses
per-path counter-based streams, regression is single-threaded, outputs embed
the config hash and seed.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import models
from .models import (
    CantorParams,
    Heston2Params,
    HestonParams,
    SimGrid,
    cantor_function,
    simulate_cantor_sde_batch,
    simulate_heston_batch,
)
from .payoffs import PAYOFF_KINDS, PayoffSpec, realized_stats_batch, statistic_key
from .regress import RegressionFit, lasso_fit, mse, predict, ridge_fit
from .signature import (
    SamplePath,
    SigTrajectory,
    augment_path,
    bracket_columns,
    endpoint_signature_batch,
    functional_matrix,
    gamma_signature,
)
from .tensor import Alphabet, TensorPoly, Word, enumerate_words, word_str

__all__ = [
    "ExperimentConfig",
    "default_config",
    "config_hash",
    "run_calibration",
    "run_pricing",
    "run_checks",
    "PAYOFF_ORDER",
]

CALIBRATION_IDS = ("heston-calib", "cantor-calib")
PRICING_IDS = ("heston2-pricing", "cantor2-pricing")
EXPERIMENT_IDS = CALIBRATION_IDS + PRICING_IDS + ("check",)

SCHEMES = ("strat", "ito")
GAMMAS = {"strat": 0.5, "ito": 0.0}

#: Payoff list of the pricing experiments, in output order.
PAYOFF_ORDER: tuple[tuple[str, tuple[int, ...]], ...] = (
    ("RVswap", (1,)), ("RVswap", (2,)),
    ("RVcall", (1,)), ("RVcall", (2,)),
    ("CovSwap", (1, 2)), ("CovCall", (1, 2)),
    ("CorrSwap", (1, 2)), ("CorrCall", (1, 2)),
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete description of one experiment run."""

    experiment: str
    model: HestonParams | Heston2Params | CantorParams | None
    grid_T: float
    grid_n: int
    trunc_level: int
    alpha: float
    regression_kind: str
    n_train: int
    n_test: int
    n_mc: int
    master_seed: int
    out_dir: str | None = None
    check_filter: str | None = None
    inject_fault: str | None = None

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENT_IDS:
            raise ValueError(f"unknown experiment {self.experiment!r}; "
                             f"choose from {EXPERIMENT_IDS}")
        if self.experiment != "check":
            if self.model is None:
                raise ValueError("model parameters required")
            if self.grid_T <= 0 or self.grid_n < 1:
                raise ValueError("grid needs T > 0 and n >= 1")
            if self.experiment in CALIBRATION_IDS and self.grid_n < 2:
                raise ValueError("calibration needs grid n >= 2: the out-of-sample "
                                 "grid on [0, T/2] has n // 2 steps")
            if self.experiment.startswith("cantor") and self.grid_T > 1.0:
                raise ValueError("the Cantor clock is defined on [0, 1]; "
                                 "need grid T <= 1")
            if self.trunc_level < 1:
                raise ValueError("trunc_level must be >= 1")
            if self.alpha < 0:
                raise ValueError("alpha must be >= 0")
            if min(self.n_train, self.n_test, self.n_mc) < 1:
                raise ValueError("sample sizes must be >= 1")
            if self.experiment in PRICING_IDS and self.n_mc < 2:
                raise ValueError("pricing needs N_MC >= 2 for the Monte Carlo "
                                 "confidence interval")
            if self.regression_kind not in ("lasso", "ridge"):
                raise ValueError("regression_kind must be 'lasso' or 'ridge'")
        if not (0 <= int(self.master_seed) < 2 ** 64):
            raise ValueError("master_seed must fit in an unsigned 64-bit integer")

    def grid(self) -> SimGrid:
        return SimGrid(self.grid_T, self.grid_n, self.master_seed)

    def test_grid(self) -> SimGrid:
        # out-of-sample paths live on [0, T/2] with the same step size
        return SimGrid(self.grid_T / 2.0, self.grid_n // 2, self.master_seed)

    def to_json_dict(self) -> dict:
        model = None if self.model is None else self.model.to_json_dict()
        return {
            "experiment": self.experiment,
            "model": model,
            "grid": {"T": self.grid_T, "n": self.grid_n},
            "signature": {"trunc_level": self.trunc_level},
            "regression": {"alpha": self.alpha, "kind": self.regression_kind},
            "samples": {"N_train": self.n_train, "N_test": self.n_test,
                        "N_MC": self.n_mc},
            "master_seed": self.master_seed,
            "out_dir": self.out_dir,
            "check": {"filter": self.check_filter, "inject_fault": self.inject_fault},
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ExperimentConfig":
        experiment = data["experiment"]
        model_data = data.get("model")
        model = None
        if experiment == "heston-calib":
            model = HestonParams.from_json_dict(model_data)
        elif experiment == "heston2-pricing":
            model = Heston2Params.from_json_dict(model_data)
        elif experiment in ("cantor-calib", "cantor2-pricing"):
            model = CantorParams.from_json_dict(model_data)
        grid = data.get("grid", {})
        sig = data.get("signature", {})
        reg = data.get("regression", {})
        samples = data.get("samples", {})
        check = data.get("check", {})
        return cls(
            experiment=experiment,
            model=model,
            grid_T=float(grid.get("T", 1.0)),
            grid_n=int(grid.get("n", 1)),
            trunc_level=int(sig.get("trunc_level", 2)),
            alpha=float(reg.get("alpha", 0.0)),
            regression_kind=reg.get("kind", "lasso"),
            n_train=int(samples.get("N_train", 1)),
            n_test=int(samples.get("N_test", 1)),
            n_mc=int(samples.get("N_MC", 1)),
            master_seed=int(data.get("master_seed", 0)),
            out_dir=data.get("out_dir"),
            check_filter=check.get("filter"),
            inject_fault=check.get("inject_fault"),
        )

    def with_seed(self, master_seed: int) -> "ExperimentConfig":
        return dataclasses.replace(self, master_seed=int(master_seed))

    def with_out_dir(self, out_dir: str | None) -> "ExperimentConfig":
        return dataclasses.replace(self, out_dir=out_dir)


def config_hash(config: ExperimentConfig) -> str:
    """Stable short hash of the canonical config JSON (out_dir excluded)."""
    data = config.to_json_dict()
    data.pop("out_dir", None)
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


_REFERENCE_HESTON = dict(s0=1.0, v0=0.08, mu=0.001, kappa=0.5, theta=0.15,
                         sigma=0.25, rho=-0.5)


def default_config(experiment: str, master_seed: int = 0, **overrides) -> ExperimentConfig:
    """Reference configuration of each experiment (fixed model parameters,
    full sample sizes); keyword overrides replace individual fields."""
    if experiment == "heston-calib":
        base = dict(model=HestonParams(**_REFERENCE_HESTON),
                    grid_T=1.0, grid_n=2000, trunc_level=2,
                    alpha=1e-5, regression_kind="lasso",
                    n_train=1, n_test=1000, n_mc=1)
    elif experiment == "cantor-calib":
        base = dict(model=CantorParams(s0=(0.0,), vol_kind="tanh"),
                    grid_T=1.0, grid_n=2000, trunc_level=2,
                    alpha=1e-5, regression_kind="lasso",
                    n_train=1, n_test=1000, n_mc=1)
    elif experiment == "heston2-pricing":
        asset1 = HestonParams(s0=100.0, v0=0.04, mu=0.0, kappa=2.0,
                              theta=0.04, sigma=0.5, rho=-0.6)
        asset2 = HestonParams(s0=80.0, v0=0.09, mu=0.0, kappa=1.8,
                              theta=0.09, sigma=0.6, rho=-0.5)
        model = Heston2Params.build(asset1, asset2, corr_b1b2=0.3,
                                    corr_w1w2=0.5, corr_b1w1=-0.6,
                                    corr_b2w2=-0.5)
        base = dict(model=model, grid_T=1.0, grid_n=252, trunc_level=2,
                    alpha=1e-6, regression_kind="ridge",
                    n_train=15000, n_test=5000, n_mc=25000)
    elif experiment == "cantor2-pricing":
        base = dict(model=CantorParams(s0=(100.0, 80.0), vol_kind="linear",
                                       nu=(0.20, 0.30), rho=0.6),
                    grid_T=1.0, grid_n=252, trunc_level=2,
                    alpha=1e-6, regression_kind="ridge",
                    n_train=15000, n_test=5000, n_mc=25000)
    elif experiment == "check":
        base = dict(model=None, grid_T=1.0, grid_n=1, trunc_level=1,
                    alpha=0.0, regression_kind="lasso",
                    n_train=1, n_test=1, n_mc=1)
    else:
        raise ValueError(f"unknown experiment {experiment!r}")
    base.update(experiment=experiment, master_seed=master_seed)
    base.update(overrides)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _SchemePlan:
    """How one scheme turns a simulated path into regression features."""

    gamma: float
    sig_level: int
    driver: Callable[[SamplePath], SamplePath]
    functionals: tuple[TensorPoly, ...]
    labels: tuple[Word, ...]


def _heston_driver(path: SamplePath) -> SamplePath:
    base = SamplePath(path.times,
                      np.column_stack([path.by_name("W_Q"), path.by_name("B_Q")]),
                      Alphabet(2), ("W_Q", "B_Q"))
    return augment_path(base, 0.0, include_time=True, include_brackets=False)


def _heston_strat_functionals(alphabet: Alphabet, N: int, rho: float) \
        -> tuple[tuple[TensorPoly, ...], tuple[Word, ...]]:
    """Integrated features for the mid-point scheme: for each index word I,

        f_I = e_{I + (1,)} - 1/2 * rho(i_last) * e_{I' + (0,)},

    where rho(letter) is the quadratic covariation rate of that driver
    column with the first base column (0 for time, 1 for the column itself,
    the driver correlation for the second column).  f_empty = e_(1).
    """
    rho_of = {0: 0.0, 1: 1.0, 2: rho}
    level = N + 1
    functionals = []
    labels = enumerate_words(alphabet, N)
    for I in labels:
        poly = TensorPoly.basis(alphabet, level, I + (1,))
        if I:
            corr = rho_of[I[-1]]
            if corr != 0.0:
                poly = poly - TensorPoly(alphabet, level, {I[:-1] + (0,): 0.5 * corr})
        functionals.append(poly)
    return tuple(functionals), labels


def _calibration_plans(config: ExperimentConfig) -> dict[str, _SchemePlan]:
    N = config.trunc_level
    if config.experiment == "heston-calib":
        alphabet = Alphabet(2, has_time=True)
        strat_fn, labels = _heston_strat_functionals(alphabet, N, config.model.rho)
        ito_fn = tuple(TensorPoly.basis(alphabet, N + 1, I + (1,)) for I in labels)
        return {
            "strat": _SchemePlan(0.5, N + 1, _heston_driver, strat_fn, labels),
            "ito": _SchemePlan(0.0, N + 1, _heston_driver, ito_fn, labels),
        }
    if config.experiment == "cantor-calib":
        strat_alphabet = Alphabet(1, has_time=True)
        strat_labels = enumerate_words(strat_alphabet, N)
        strat_fn = tuple(TensorPoly.basis(strat_alphabet, N, w) for w in strat_labels)

        def strat_driver(path: SamplePath) -> SamplePath:
            base = SamplePath(path.times, path.by_name("W_C"), Alphabet(1), ("W_C",))
            return augment_path(base, 0.5, include_time=True, include_brackets=False)

        ito_alphabet = Alphabet(1, has_time=True, has_brackets=True)
        ito_labels = enumerate_words(Alphabet(1, has_time=True, has_brackets=True), N - 1)
        ito_fn = tuple(TensorPoly.basis(ito_alphabet, N, I + (1,)) for I in ito_labels)

        def ito_driver(path: SamplePath) -> SamplePath:
            # bracket column is the exact clock C(t): [W_C]_t = C(t)
            values = np.column_stack([path.times, path.by_name("W_C"),
                                      path.by_name("C")])
            return SamplePath(path.times, values, ito_alphabet, ("t", "W_C", "C"))

        return {
            "strat": _SchemePlan(0.5, N, strat_driver, strat_fn, strat_labels),
            "ito": _SchemePlan(0.0, N, ito_driver, ito_fn, ito_labels),
        }
    raise ValueError(f"{config.experiment!r} is not a calibration experiment")


def _simulate_calibration_paths(config: ExperimentConfig, grid: SimGrid,
                                indices: Sequence[int]) -> list[SamplePath]:
    if config.experiment == "heston-calib":
        return simulate_heston_batch(config.model, grid, indices)
    return simulate_cantor_sde_batch(config.model, grid, indices, n_assets=1)


def _scheme_features(plan: _SchemePlan, path: SamplePath) -> np.ndarray:
    traj = gamma_signature(plan.driver(path), plan.gamma, plan.sig_level)
    return functional_matrix([traj], plan.functionals, at_end=False)


def run_calibration(config: ExperimentConfig) -> dict:
    """Fit both schemes on one training trajectory, evaluate in-sample and on
    fresh out-of-sample paths over [0, T/2]; returns (and optionally writes)
    the MSE summary, fitted functionals, and a test-path trajectory table."""
    if config.experiment not in CALIBRATION_IDS:
        raise ValueError(f"{config.experiment!r} is not a calibration experiment")
    plans = _calibration_plans(config)
    target_name = "S"
    s0 = (config.model.s0 if config.experiment == "heston-calib"
          else config.model.s0[0])

    train_path = _simulate_calibration_paths(config, config.grid(), [0])[0]
    y_train = train_path.by_name(target_name)

    test_grid = config.test_grid()
    test_paths = _simulate_calibration_paths(
        config, test_grid, range(1, config.n_test + 1))

    report: dict = {
        "experiment": config.experiment,
        "config_hash": config_hash(config),
        "master_seed": config.master_seed,
        "schemes": {},
    }
    trajectory: dict[str, list[float]] = {}
    for scheme in SCHEMES:
        plan = plans[scheme]
        X_train = _scheme_features(plan, train_path)
        fit = lasso_fit(X_train, y_train, config.alpha, words=plan.labels,
                        intercept=s0)
        in_mse = mse(predict(fit, X_train), y_train)
        out_mses = []
        for i, path in enumerate(test_paths):
            X_test = _scheme_features(plan, path)
            y_test = path.by_name(target_name)
            pred = predict(fit, X_test)
            out_mses.append(mse(pred, y_test))
            if i == 0:
                trajectory.setdefault("t", list(path.times))
                trajectory.setdefault("target", [float(v) for v in y_test])
                trajectory[f"pred_{scheme}"] = [float(v) for v in pred]
        report["schemes"][scheme] = {
            "in_sample_mse": in_mse,
            "out_sample_mse": float(np.mean(out_mses)),
            "fit": fit.to_json_dict(),
        }
    report["trajectory"] = trajectory
    if config.out_dir:
        _write_calibration_outputs(config, report)
    return report


# ---------------------------------------------------------------------------
# Pricing
# ---------------------------------------------------------------------------

def _endpoint_features(times: np.ndarray, x: np.ndarray, brackets: np.ndarray | None,
                       gamma: float, trunc_level: int) -> np.ndarray:
    """Feature rows [1, level-1 coords, level-2 coords, ...] of end-point
    signatures of (t, x...) or, given bracket columns, (t, x..., brackets...)."""
    B, n_plus_1, d = x.shape
    cols = [np.broadcast_to(times, (B, n_plus_1))[:, :, None], x]
    if brackets is not None:
        cols.append(brackets)
    values = np.concatenate(cols, axis=2)
    ends = endpoint_signature_batch(values, gamma, trunc_level)
    return np.concatenate([np.ones((B, 1))] + ends, axis=1)


def _pricing_log_paths(config: ExperimentConfig, indices: Sequence[int]) \
        -> tuple[np.ndarray, np.ndarray]:
    """Simulate a chunk and return (x, ok): shifted log-prices (B, n+1, 2)
    and a row mask of paths with strictly positive prices."""
    grid = config.grid()
    z_width = 4 if config.experiment == "heston2-pricing" else 2
    z = models._stack_draws(grid, indices, z_width)
    if config.experiment == "heston2-pricing":
        res = models._heston2_euler(config.model, grid, z)
        S = np.stack([res["S1"], res["S2"]], axis=2)
    else:
        res = models._cantor_euler(config.model, grid, z, n_assets=2)
        S = res["S"]
    ok = np.all(S > 0.0, axis=(1, 2))
    safe = np.where(S > 0.0, S, 1.0)
    x = np.log(safe) - np.log(safe[:, :1, :])
    return x, ok


#: Feature family -> (log-price columns, slice of the two-asset bracket block
#: (1,1),(1,2),(2,2) that belongs to the family).  The bracket slice is a
#: basic slice so the block stays in C order: the end-point contraction sums
#: in an order set by its input's memory layout, and so do its last bits.
_PRICING_FAMILIES = {"1": ([0], slice(0, 1)), "2": ([1], slice(2, 3)),
                     "12": ([0, 1], slice(0, 3))}


def run_pricing(config: ExperimentConfig) -> dict:
    """Ridge-learn the eight payoffs from end-point signatures per scheme,
    compare regressed prices with the Monte Carlo price and its 95% CI.

    Single-asset payoffs use the driver (t, log S^i) (mid-point scheme) or
    (t, log S^i, [log S^i]) (left-point scheme); two-asset payoffs use the
    joint versions.  Log-price paths are shifted to start at 0 (signatures
    only see increments).  Strikes are training-sample means.
    """
    if config.experiment not in PRICING_IDS:
        raise ValueError(f"{config.experiment!r} is not a pricing experiment")
    N = config.trunc_level
    total = config.n_train + config.n_test + config.n_mc
    times = config.grid().times

    n_feats = {}
    feats: dict[tuple[str, str], np.ndarray] = {}
    for family in _PRICING_FAMILIES:
        d = len(family)
        for scheme in SCHEMES:
            L = 1 + d + (d * (d + 1) // 2 if scheme == "ito" else 0)
            width = (L ** (N + 1) - 1) // (L - 1)
            feats[(family, scheme)] = np.empty((total, width))
            n_feats[(family, scheme)] = width
    stats: dict[str, np.ndarray] = {}
    ok_all = np.empty(total, dtype=bool)

    chunk = 1500
    for start in range(0, total, chunk):
        idx = range(start, min(start + chunk, total))
        x, ok = _pricing_log_paths(config, idx)
        sl = slice(start, start + len(x))
        ok_all[sl] = ok
        chunk_stats = realized_stats_batch(x)
        for key, arr in chunk_stats.items():
            stats.setdefault(key, np.empty(total))[sl] = arr
        brackets = bracket_columns(x)
        for family, (assets, bracket_cols) in _PRICING_FAMILIES.items():
            sub = x[:, :, assets]
            for scheme in SCHEMES:
                feats[(family, scheme)][sl] = _endpoint_features(
                    times, sub, brackets[:, :, bracket_cols] if scheme == "ito" else None,
                    GAMMAS[scheme], N)
        # free this chunk's brackets before the next chunk is simulated
        del brackets, sub

    cohorts = {
        "train": np.zeros(total, dtype=bool),
        "test": np.zeros(total, dtype=bool),
        "mc": np.zeros(total, dtype=bool),
    }
    cohorts["train"][:config.n_train] = True
    cohorts["test"][config.n_train:config.n_train + config.n_test] = True
    cohorts["mc"][config.n_train + config.n_test:] = True
    for mask in cohorts.values():
        mask &= ok_all
    rejected = int(total - ok_all.sum())

    degenerate_corr = 0
    for key in list(stats):
        if key.startswith("Corr"):
            bad = ~np.isfinite(stats[key])
            degenerate_corr += int(bad.sum())
            stats[key] = np.where(bad, 0.0, stats[key])

    strikes = {key: float(np.mean(arr[cohorts["train"]]))
               for key, arr in stats.items()}

    report: dict = {
        "experiment": config.experiment,
        "config_hash": config_hash(config),
        "master_seed": config.master_seed,
        "strikes": strikes,
        "rejected_paths": rejected,
        "degenerate_corr_paths": degenerate_corr,
        "payoffs": [],
    }
    words_cache = {
        (family, scheme): _pricing_words(family, scheme, N)
        for family in _PRICING_FAMILIES for scheme in SCHEMES
    }
    for kind, assets in PAYOFF_ORDER:
        family = "".join(str(a) for a in assets)
        strike = strikes[statistic_key(kind, assets)]
        spec = PayoffSpec(kind, assets, strike)
        stat = stats[statistic_key(kind, assets)]
        values = stat - strike
        if spec.is_call:
            values = np.maximum(values, 0.0)
        y_mc = values[cohorts["mc"]]
        mc_price = float(np.mean(y_mc))
        stderr = float(np.std(y_mc, ddof=1) / math.sqrt(len(y_mc)))
        entry: dict = {
            "payoff": spec.label,
            "strike": strike,
            "mc_price": mc_price,
            "ci_lo": mc_price - 1.96 * stderr,
            "ci_hi": mc_price + 1.96 * stderr,
        }
        for scheme in SCHEMES:
            X = feats[(family, scheme)]
            fit = ridge_fit(X[cohorts["train"]], values[cohorts["train"]],
                            config.alpha, words=words_cache[(family, scheme)])
            pred_test = predict(fit, X[cohorts["test"]])
            entry[scheme] = {
                "in_sample_mse": fit.diagnostics["in_sample_mse"],
                "out_sample_mse": mse(pred_test, values[cohorts["test"]]),
                "price": float(np.mean(predict(fit, X[cohorts["mc"]]))),
                "fit": fit.to_json_dict(),
            }
        report["payoffs"].append(entry)
    if config.out_dir:
        _write_pricing_outputs(config, report)
    return report


def _pricing_words(family: str, scheme: str, N: int) -> tuple[Word, ...]:
    d = len(family)
    alphabet = Alphabet(d, has_time=True, has_brackets=(scheme == "ito"))
    return enumerate_words(alphabet, N)


# ---------------------------------------------------------------------------
# Output files
# ---------------------------------------------------------------------------

def _header(config: ExperimentConfig) -> str:
    return f"config_hash={config_hash(config)} master_seed={config.master_seed}"


def _write_lines(path, header: str, lines: Sequence[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# {header}\n")
        for line in lines:
            fh.write(line + "\n")


def _json_with_stamp(config: ExperimentConfig, payload: dict) -> str:
    stamped = {"config_hash": config_hash(config),
               "master_seed": config.master_seed}
    stamped.update(payload)
    return json.dumps(stamped, indent=2, sort_keys=False)


def _write_calibration_outputs(config: ExperimentConfig, report: dict) -> None:
    import os
    os.makedirs(config.out_dir, exist_ok=True)
    header = _header(config)
    lines = ["scheme,in_sample_mse,out_sample_mse"]
    for scheme in SCHEMES:
        entry = report["schemes"][scheme]
        lines.append(f"{scheme},{entry['in_sample_mse']!r},{entry['out_sample_mse']!r}")
    _write_lines(os.path.join(config.out_dir, "mse_summary.csv"), header, lines)

    traj = report["trajectory"]
    lines = ["t,target,pred_strat,pred_ito"]
    for k in range(len(traj["t"])):
        lines.append(",".join(repr(float(traj[c][k]))
                              for c in ("t", "target", "pred_strat", "pred_ito")))
    _write_lines(os.path.join(config.out_dir, "trajectory.csv"), header, lines)

    for scheme in SCHEMES:
        path = os.path.join(config.out_dir, f"fit_{scheme}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_json_with_stamp(config, report["schemes"][scheme]["fit"]))
            fh.write("\n")


def _write_pricing_outputs(config: ExperimentConfig, report: dict) -> None:
    import os
    os.makedirs(config.out_dir, exist_ok=True)
    header = _header(config)

    lines = ["payoff,scheme,price,mc_price,ci_lo,ci_hi"]
    for entry in report["payoffs"]:
        for scheme in SCHEMES:
            lines.append(",".join([
                entry["payoff"], scheme, repr(entry[scheme]["price"]),
                repr(entry["mc_price"]), repr(entry["ci_lo"]), repr(entry["ci_hi"]),
            ]))
    _write_lines(os.path.join(config.out_dir, "prices.csv"), header, lines)

    lines = ["payoff,scheme,in_sample_mse,out_sample_mse"]
    for entry in report["payoffs"]:
        for scheme in SCHEMES:
            lines.append(",".join([
                entry["payoff"], scheme,
                repr(entry[scheme]["in_sample_mse"]),
                repr(entry[scheme]["out_sample_mse"]),
            ]))
    _write_lines(os.path.join(config.out_dir, "mse_summary.csv"), header, lines)

    for scheme in SCHEMES:
        fits = {entry["payoff"]: entry[scheme]["fit"] for entry in report["payoffs"]}
        path = os.path.join(config.out_dir, f"fit_{scheme}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_json_with_stamp(config, {"fits": fits}))
            fh.write("\n")


# ---------------------------------------------------------------------------
# Check suites
# ---------------------------------------------------------------------------

def run_checks(config: ExperimentConfig) -> dict:
    """Execute the per-module invariant suites; report is machine readable.

    ``config.check_filter`` restricts to one module; ``config.inject_fault``
    force-breaks a known property as a negative control (supported:
    "lasso-threshold").
    """
    from . import checks
    report = checks.run_all(module_filter=config.check_filter,
                            inject_fault=config.inject_fault)
    report["config_hash"] = config_hash(config)
    report["master_seed"] = config.master_seed
    return report
