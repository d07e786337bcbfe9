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
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .models import (
    CantorParams,
    Heston2Params,
    HestonParams,
    SimGrid,
    simulate_cantor_sde_batch,
    simulate_heston2_batch,
    simulate_heston_batch,
)
from .payoffs import PayoffSpec, payoff_values, realized_stats_batch, statistic_key
from .regress import lasso_fit, mse, predict, ridge_fit
from .signature import (
    SamplePath,
    augment_path,
    bracket_columns,
    endpoint_signature_batch,
    functional_matrix,
    functional_paths,
    gamma_signature,
)
from .tensor import Alphabet, TensorPoly, Word, enumerate_words

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


#: (JSON key, field, value) of the sizes the check experiment reads none of;
#: they are fixed at its reference values.
_CHECK_FIXED = (("grid.T", "grid_T", 1.0), ("grid.n", "grid_n", 1),
                ("signature.trunc_level", "trunc_level", 1),
                ("regression.alpha", "alpha", 0.0), ("samples.N_train", "n_train", 1),
                ("samples.N_test", "n_test", 1), ("samples.N_MC", "n_mc", 1))


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete description of one experiment run."""

    experiment: str
    model: HestonParams | Heston2Params | CantorParams | None
    grid_T: float
    grid_n: int
    trunc_level: int
    alpha: float
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
        if self.experiment == "check":
            if self.model is not None:
                raise ValueError("the check experiment takes no model: "
                                 "'model' must be null")
            for key, name, ref in _CHECK_FIXED:
                if getattr(self, name) != ref:
                    raise ValueError(f"the check experiment reads no {key!r}: it "
                                     f"must be {ref!r}, got {getattr(self, name)!r}")
        else:
            if self.model is None:
                raise ValueError("model parameters required")
            if self.grid_T <= 0 or self.grid_n < 1:
                raise ValueError("grid needs T > 0 and n >= 1")
            if self.experiment in CALIBRATION_IDS and self.grid_n < 2:
                raise ValueError("calibration needs grid n >= 2: the out-of-sample "
                                 "grid on [0, T/2] has n // 2 steps")
            if self.experiment.startswith("cantor"):
                if self.grid_T > 1.0:
                    raise ValueError("the Cantor clock is defined on [0, 1]; "
                                     "need grid T <= 1")
                assets = 1 if self.experiment in CALIBRATION_IDS else 2
                if len(self.model.s0) != assets:
                    raise ValueError(f"{self.experiment} needs 'model.s0' with "
                                     f"{assets} asset(s), got {list(self.model.s0)}")
            if self.trunc_level < 1:
                raise ValueError("trunc_level must be >= 1")
            if self.alpha < 0:
                raise ValueError("alpha must be >= 0")
            if min(self.n_train, self.n_test, self.n_mc) < 1:
                raise ValueError("sample sizes must be >= 1")
            if self.experiment in CALIBRATION_IDS and (self.n_train, self.n_mc) != (1, 1):
                raise ValueError("calibration fits one training path and has no "
                                 "Monte Carlo cohort: 'samples.N_train' and "
                                 f"'samples.N_MC' must be 1, got {self.n_train} "
                                 f"and {self.n_mc}")
            if self.experiment in PRICING_IDS and self.n_mc < 2:
                raise ValueError("pricing needs N_MC >= 2 for the Monte Carlo "
                                 "confidence interval")
            if self.experiment in PRICING_IDS and self.alpha == 0:
                raise ValueError("pricing needs alpha > 0: the time coordinates "
                                 "(t), (t,t), ... are equal on every path, so at "
                                 "alpha 0 the ridge Gram is singular whatever "
                                 "N_train is")
        if not 0 <= self.master_seed < 2 ** 64:
            raise ValueError("'master_seed' must fit in an unsigned 64-bit "
                             f"integer, got {self.master_seed}")
        for key, value in (("out_dir", self.out_dir), ("check.filter", self.check_filter),
                           ("check.inject_fault", self.inject_fault)):
            if not isinstance(value, (str, type(None))):
                raise ValueError(f"{key!r} must be a string or null, got {value!r}")
        if self.inject_fault not in (None, "lasso-threshold"):
            raise ValueError("'check.inject_fault' must be null or "
                             f"'lasso-threshold', got {self.inject_fault!r}")

    @property
    def regression_kind(self) -> str:
        """Ridge for the pricing experiments, lasso otherwise."""
        return "ridge" if self.experiment in PRICING_IDS else "lasso"

    def grid(self) -> SimGrid:
        return SimGrid(self.grid_T, self.grid_n, self.master_seed)

    def test_grid(self) -> SimGrid:
        # out-of-sample paths live on [0, T/2] with the same step size
        return SimGrid(self.grid_T / 2.0, self.grid_n // 2, self.master_seed)

    def to_json_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "model": None if self.model is None else dataclasses.asdict(self.model),
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
        """Inverse of :meth:`to_json_dict`.  ``data`` must be complete and
        typed: the CLI merges a config file over the reference first."""
        experiment, model = data["experiment"], data["model"]
        if experiment == "heston-calib":
            model = HestonParams(**model)
        elif experiment == "heston2-pricing":
            model = Heston2Params(HestonParams(**model["asset1"]),
                                  HestonParams(**model["asset2"]), model["corr4"])
        elif experiment in ("cantor-calib", "cantor2-pricing"):
            model = CantorParams(**model)
        config = cls(
            experiment=experiment,
            model=model,
            grid_T=data["grid"]["T"],
            grid_n=data["grid"]["n"],
            trunc_level=data["signature"]["trunc_level"],
            alpha=data["regression"]["alpha"],
            n_train=data["samples"]["N_train"],
            n_test=data["samples"]["N_test"],
            n_mc=data["samples"]["N_MC"],
            master_seed=data["master_seed"],
            out_dir=data["out_dir"],
            check_filter=data["check"]["filter"],
            inject_fault=data["check"]["inject_fault"],
        )
        kind = data["regression"]["kind"]
        if kind != config.regression_kind:
            raise ValueError(f"{experiment} fits with {config.regression_kind}: "
                             f"'regression.kind' must be {config.regression_kind!r}, "
                             f"got {kind!r}")
        return config


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
                    alpha=1e-5, n_train=1, n_test=1000, n_mc=1)
    elif experiment == "cantor-calib":
        base = dict(model=CantorParams(s0=(0.0,), vol_kind="tanh"),
                    grid_T=1.0, grid_n=2000, trunc_level=2,
                    alpha=1e-5, n_train=1, n_test=1000, n_mc=1)
    elif experiment == "heston2-pricing":
        asset1 = HestonParams(s0=100.0, v0=0.04, mu=0.0, kappa=2.0,
                              theta=0.04, sigma=0.5, rho=-0.6)
        asset2 = HestonParams(s0=80.0, v0=0.09, mu=0.0, kappa=1.8,
                              theta=0.09, sigma=0.6, rho=-0.5)
        model = Heston2Params.build(asset1, asset2, corr_b1b2=0.3,
                                    corr_w1w2=0.5, corr_b1w1=-0.6,
                                    corr_b2w2=-0.5)
        base = dict(model=model, grid_T=1.0, grid_n=252, trunc_level=2,
                    alpha=1e-6, n_train=15000, n_test=5000, n_mc=25000)
    elif experiment == "cantor2-pricing":
        base = dict(model=CantorParams(s0=(100.0, 80.0), vol_kind="linear",
                                       nu=(0.20, 0.30), rho=0.6),
                    grid_T=1.0, grid_n=252, trunc_level=2,
                    alpha=1e-6, n_train=15000, n_test=5000, n_mc=25000)
    elif experiment == "check":
        base = dict(model=None, **{name: ref for _, name, ref in _CHECK_FIXED})
    else:
        raise ValueError(f"unknown experiment {experiment!r}")
    base.update(experiment=experiment, master_seed=master_seed)
    base.update(overrides)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------

#: Simulated calibration columns: name -> (B, n+1) array, or (n+1,) for a
#: column shared by every path (the Cantor clock "C").
_Columns = dict[str, np.ndarray]


@dataclass(frozen=True)
class _SchemePlan:
    """How one scheme turns row b of the simulated columns into regression
    features: ``driver(times, columns, b)`` builds the path whose signature
    is paired with the functionals.  Its column names ("t", a simulated
    column, or the shared clock "C") also lay out the batched test paths."""

    gamma: float
    sig_level: int
    driver: Callable[[np.ndarray, _Columns, int], SamplePath]
    functionals: tuple[TensorPoly, ...]
    labels: tuple[Word, ...]


def _heston_driver(times: np.ndarray, cols: _Columns, b: int) -> SamplePath:
    base = SamplePath(times, np.column_stack([cols["W_Q"][b], cols["B_Q"][b]]),
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

        def strat_driver(times: np.ndarray, cols: _Columns, b: int) -> SamplePath:
            base = SamplePath(times, cols["W_C"][b], Alphabet(1), ("W_C",))
            return augment_path(base, 0.5, include_time=True, include_brackets=False)

        ito_alphabet = Alphabet(1, has_time=True, has_brackets=True)
        ito_labels = enumerate_words(Alphabet(1, has_time=True, has_brackets=True), N - 1)
        ito_fn = tuple(TensorPoly.basis(ito_alphabet, N, I + (1,)) for I in ito_labels)

        def ito_driver(times: np.ndarray, cols: _Columns, b: int) -> SamplePath:
            # bracket column is the exact clock C(t): [W_C]_t = C(t)
            values = np.column_stack([times, cols["W_C"][b], cols["C"]])
            return SamplePath(times, values, ito_alphabet, ("t", "W_C", "C"))

        return {
            "strat": _SchemePlan(0.5, N, strat_driver, strat_fn, strat_labels),
            "ito": _SchemePlan(0.0, N, ito_driver, ito_fn, ito_labels),
        }
    raise ValueError(f"{config.experiment!r} is not a calibration experiment")


def _simulate_calibration_columns(config: ExperimentConfig, grid: SimGrid,
                                  indices: Sequence[int]) -> _Columns:
    if config.experiment == "heston-calib":
        return simulate_heston_batch(config.model, grid, indices)
    res = simulate_cantor_sde_batch(config.model, grid, indices, n_assets=1)
    return {"S": res["S"][:, :, 0], "W_C": res["W_C"][:, :, 0], "C": res["C"]}


def _driver_values(times: np.ndarray, cols: _Columns, names: Sequence[str],
                   start: int, stop: int) -> np.ndarray:
    """Driver values (B, n+1, L) of paths ``start..stop-1`` with the columns
    ``names`` of a scheme's driver: "t" is the grid, a shared column is
    broadcast and any other column is each path's own row."""
    out = np.empty((stop - start, len(times), len(names)))
    for i, name in enumerate(names):
        col = times if name == "t" else cols[name]
        out[:, :, i] = col if col.ndim == 1 else col[start:stop]
    return out


#: Test paths per batched signature pass of a calibration.
_TEST_CHUNK = 100


def run_calibration(config: ExperimentConfig) -> dict:
    """Fit both schemes on one training trajectory, evaluate in-sample and on
    fresh out-of-sample paths over [0, T/2]; returns (and optionally writes)
    the MSE summary, fitted functionals, and a test-path trajectory table.

    The training design goes through :func:`gamma_signature` and
    :func:`functional_matrix`; the in-sample MSE is the lasso's own.  Test
    paths go through :func:`functional_paths` in chunks of ``_TEST_CHUNK``,
    each scored by one stacked :func:`predict` and one row-wise :func:`mse`.
    A training target whose squares can overflow float64 (before any fit)
    and a non-finite MSE (naming the scheme and the statistic) are
    ``ValueError``s raised before any file is written.
    """
    if config.experiment not in CALIBRATION_IDS:
        raise ValueError(f"{config.experiment!r} is not a calibration experiment")
    plans = _calibration_plans(config)
    s0 = (config.model.s0 if config.experiment == "heston-calib"
          else config.model.s0[0])

    train_grid = config.grid()
    train = _simulate_calibration_columns(config, train_grid, [0])
    y_train = train["S"][0]
    # the fits sum the target's squares; n * peak**2 bounds them without overflow
    peak = float(np.max(np.abs(y_train)))
    if peak > math.sqrt(sys.float_info.max / len(y_train)):
        raise ValueError(f"{config.experiment}: the training target reaches {peak:.3e}, "
                         "and the sum of its squares can overflow float64")

    test_grid = config.test_grid()
    test = _simulate_calibration_columns(
        config, test_grid, range(1, config.n_test + 1))

    report: dict = {
        "experiment": config.experiment,
        "config_hash": config_hash(config),
        "master_seed": config.master_seed,
        "schemes": {},
    }
    trajectory = {"t": list(test_grid.times), "target": test["S"][0].tolist()}
    for scheme in SCHEMES:
        plan = plans[scheme]
        driver = plan.driver(train_grid.times, train, 0)
        traj = gamma_signature(driver, plan.gamma, plan.sig_level)
        X_train = functional_matrix(traj, plan.functionals)
        fit = lasso_fit(X_train, y_train, config.alpha, words=plan.labels,
                        intercept=s0)
        if not fit.diagnostics["converged"]:
            print(f"warning: {config.experiment} {scheme} lasso fit not converged "
                  f"after n_iter={fit.diagnostics['n_iter']} active-set steps",
                  file=sys.stderr)
        in_mse = fit.diagnostics["in_sample_mse"]
        out_mses = []
        for start in range(0, config.n_test, _TEST_CHUNK):
            stop = min(start + _TEST_CHUNK, config.n_test)
            values = _driver_values(test_grid.times, test, driver.names, start, stop)
            pred = predict(fit, functional_paths(values, plan.gamma, plan.functionals))
            out_mses.append(mse(pred, test["S"][start:stop]))
            if start == 0:
                trajectory[f"pred_{scheme}"] = pred[0].tolist()
        out_mse = float(np.mean(np.concatenate(out_mses)))
        for label, value in (("in-sample", in_mse), ("out-of-sample", out_mse)):
            if not math.isfinite(value):
                raise ValueError(f"{config.experiment} {scheme} scheme: the {label} "
                                 f"MSE is {value!r}, not a finite number")
        report["schemes"][scheme] = {
            "in_sample_mse": in_mse,
            "out_sample_mse": out_mse,
            "fit": fit.to_json_dict(),
        }
    report["trajectory"] = trajectory
    if config.out_dir:
        _write_calibration_outputs(config, report)
    return report


# ---------------------------------------------------------------------------
# Pricing
# ---------------------------------------------------------------------------

def _pricing_log_paths(config: ExperimentConfig, indices: Sequence[int]) \
        -> tuple[np.ndarray, np.ndarray]:
    """Simulate a chunk and return (x, ok): shifted log-prices (B, n+1, 2)
    and a row mask of paths with strictly positive prices."""
    grid = config.grid()
    if config.experiment == "heston2-pricing":
        res = simulate_heston2_batch(config.model, grid, indices)
        S = np.stack([res["S1"], res["S2"]], axis=2)
    else:
        S = simulate_cantor_sde_batch(config.model, grid, indices, n_assets=2)["S"]
    ok = np.all(S > 0.0, axis=(1, 2))
    safe = np.where(S > 0.0, S, 1.0)
    x = np.log(safe) - np.log(safe[:, :1, :])
    return x, ok


#: Feature family -> the assets it reads, as base letters of the two-asset
#: alphabet.  A family's features are the end-point signature of (t, its
#: log-prices) or, in the left-point scheme, of (t, its log-prices, their
#: brackets).  The signature of a path restricted to some of its coordinates
#: is the matching restriction of the full signature, so every family's row
#: is a fixed column subset of the joint two-asset row of its scheme.
_PRICING_FAMILIES: dict[str, tuple[int, ...]] = {"1": (1,), "2": (2,), "12": (1, 2)}

#: Paths per simulated chunk of a pricing run.
_PRICING_CHUNK = 1500


def _pricing_alphabet(d: int, scheme: str) -> Alphabet:
    return Alphabet(d, has_time=True, has_brackets=(scheme == "ito"))


def _family_letters(family: str, scheme: str) -> dict[int, int]:
    """Letter of a family's alphabet -> letter of the joint alphabet: time to
    time, base letter k to the family's k-th asset and bracket eps(i, j) to
    the joint bracket of those two assets."""
    sub, joint = _pricing_alphabet(len(family), scheme), _pricing_alphabet(2, scheme)
    base = {0: 0, **dict(enumerate(_PRICING_FAMILIES[family], 1))}
    letters = {}
    for letter in sub.letters:
        if sub.is_bracket(letter):
            i, j = sub.bracket_pair(letter)
            letters[letter] = joint.bracket_letter(base[i], base[j])
        else:
            letters[letter] = base[letter]
    return letters


def _family_columns(family: str, scheme: str, N: int) -> tuple[tuple[Word, ...], np.ndarray]:
    """A family's feature words (graded-lex order of its own alphabet) and
    their columns in the joint row [1, level 1, ..., level N] of its scheme:
    a word of length m sits at 1 + L + ... + L**(m-1) plus the
    :meth:`Alphabet.word_index` of its image in the joint alphabet."""
    letters = _family_letters(family, scheme)
    joint = _pricing_alphabet(2, scheme)
    L = joint.total_letters
    words = enumerate_words(_pricing_alphabet(len(family), scheme), N)
    columns = [(L ** len(word) - 1) // (L - 1)
               + joint.word_index(tuple(letters[letter] for letter in word))
               for word in words]
    return words, np.array(columns)


#: (family, scheme) -> the family's words and their joint columns.
_Layout = dict[tuple[str, str], tuple[tuple[Word, ...], np.ndarray]]


def _pricing_layout(N: int) -> _Layout:
    """:func:`_family_columns` of every (family, scheme)."""
    return {(family, scheme): _family_columns(family, scheme, N)
            for family in _PRICING_FAMILIES for scheme in SCHEMES}


def _joint_values(times: np.ndarray, x: np.ndarray, brackets: np.ndarray) -> np.ndarray:
    """Driver values (B, n+1, L) of a joint pass in C order: (t, x1, x2) and
    ``brackets``, the block [1,1], [1,2], [2,2] for ``ito``, none for ``strat``."""
    B, n_plus_1, d = x.shape
    values = np.empty((B, n_plus_1, 1 + d + brackets.shape[2]))
    values[:, :, 0] = times
    values[:, :, 1:1 + d] = x
    values[:, :, 1 + d:] = brackets
    return values


def _pricing_features(config: ExperimentConfig, layout: _Layout) \
        -> tuple[dict[tuple[str, str], np.ndarray], dict[str, np.ndarray], np.ndarray]:
    """Feature rows per (family, scheme) of ``layout``, realized statistics
    and the mask of paths with positive prices, over all N_train + N_test +
    N_MC paths.

    Each chunk of ``_PRICING_CHUNK`` paths builds its bracket block once, for
    the statistics (its end row) and the left-point joint values, then takes
    one joint end-point pass per scheme, left-point first with the block
    freed; each family takes its columns of the joint row.
    """
    N = config.trunc_level
    total = config.n_train + config.n_test + config.n_mc
    times = config.grid().times
    feats = {key: np.empty((total, len(words))) for key, (words, _) in layout.items()}
    stats: dict[str, np.ndarray] = {}
    ok_all = np.empty(total, dtype=bool)
    for start in range(0, total, _PRICING_CHUNK):
        x, ok = _pricing_log_paths(config, range(start, min(start + _PRICING_CHUNK, total)))
        sl = slice(start, start + len(x))
        ok_all[sl] = ok
        brackets = bracket_columns(x)
        for key, arr in realized_stats_batch(brackets[:, -1]).items():
            stats.setdefault(key, np.empty(total))[sl] = arr
        for scheme in ("ito", "strat"):
            values = _joint_values(times, x, brackets)
            brackets = x[:, :, :0]  # free the block before the pass; strat has none
            ends = endpoint_signature_batch(values, GAMMAS[scheme], N)
            del values
            row = np.concatenate([np.ones((len(x), 1))] + ends, axis=1)
            del ends
            for family in _PRICING_FAMILIES:
                feats[(family, scheme)][sl] = row[:, layout[(family, scheme)][1]]
    return feats, stats, ok_all


def run_pricing(config: ExperimentConfig) -> dict:
    """Ridge-learn the eight payoffs from end-point signatures per scheme,
    compare regressed prices with the Monte Carlo price and its 95% CI.

    Single-asset payoffs use the driver (t, log S^i) (mid-point scheme) or
    (t, log S^i, [log S^i]) (left-point scheme); two-asset payoffs use the
    joint versions.  Log-price paths are shifted to start at 0 (signatures
    only see increments).  Strikes are training-sample means.  A cohort
    left with too few paths after rejection is a ``ValueError`` that names
    it.
    """
    if config.experiment not in PRICING_IDS:
        raise ValueError(f"{config.experiment!r} is not a pricing experiment")
    total = config.n_train + config.n_test + config.n_mc
    layout = _pricing_layout(config.trunc_level)
    feats, stats, ok_all = _pricing_features(config, layout)

    rejected = int(total - ok_all.sum())
    cohorts: dict[str, np.ndarray] = {}
    start = 0
    for name, label, size, need in (("train", "training", config.n_train, 1),
                                    ("test", "test", config.n_test, 1),
                                    ("mc", "Monte Carlo", config.n_mc, 2)):
        mask = np.zeros(total, dtype=bool)
        mask[start:start + size] = ok_all[start:start + size]
        start += size
        kept = int(mask.sum())
        if kept < need:
            raise ValueError(
                f"the {label} cohort keeps {kept} of its {size} paths after "
                f"{rejected} of {total} paths were rejected for a non-positive "
                f"price; pricing needs at least {need}")
        cohorts[name] = mask

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
    for kind, assets in PAYOFF_ORDER:
        family = "".join(str(a) for a in assets)
        strike = strikes[statistic_key(kind, assets)]
        spec = PayoffSpec(kind, assets, strike)
        values = payoff_values(spec, stats[statistic_key(kind, assets)])
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
                            config.alpha, words=layout[(family, scheme)][0])
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
