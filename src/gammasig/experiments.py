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
import functools
import hashlib
import json
import math
import operator
import os
import pickle
import sys
import threading
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .models import (
    CantorParams,
    Heston2Params,
    HestonParams,
    SimGrid,
    cantor_function,
    heston_drivers,
    simulate_cantor_sde_batch,
    simulate_heston2_batch,
    simulate_heston_batch,
    simulation_values,
)
from .payoffs import PayoffSpec, payoff_values, realized_stats_batch, statistic_key
from .regress import lasso_fit, mse, predict, ridge_fit
from .signature import (
    SamplePath,
    augment_path,
    bracket_columns,
    cumsum0,
    endpoint_signature_batch,
    functional_matrix,
    functional_paths,
    gamma_signature,
)
from .tensor import Alphabet, TensorPoly, Word, enumerate_words

__all__ = [
    "ExperimentConfig",
    "check_array_size",
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


#: (JSON key, attribute) of each config value, in JSON order.  The JSON key
#: "regression.kind" has no attribute: it follows from the experiment.
_KEYS = (("experiment", "experiment"), ("model", "model"), ("grid.T", "grid_T"),
         ("grid.n", "grid_n"), ("signature.trunc_level", "trunc_level"),
         ("regression.alpha", "alpha"), ("samples.N_train", "n_train"),
         ("samples.N_test", "n_test"), ("samples.N_MC", "n_mc"),
         ("master_seed", "master_seed"), ("out_dir", "out_dir"),
         ("check.filter", "check_filter"), ("check.inject_fault", "inject_fault"))

#: The reference sizes of the calibration and of the pricing experiments.
_CALIBRATION = {"grid": {"T": 1.0, "n": 2000}, "signature": {"trunc_level": 2},
                "regression": {"alpha": 1e-5},
                "samples": {"N_train": 1, "N_test": 1000, "N_MC": 1}}
_PRICING = {"grid": {"T": 1.0, "n": 252}, "signature": {"trunc_level": 2},
            "regression": {"alpha": 1e-6},
            "samples": {"N_train": 15000, "N_test": 5000, "N_MC": 25000}}

#: Each experiment's reference values, as JSON that leaves out the keys whose
#: value is null, and the parser of its "model" value.
_REFERENCE: dict[str, tuple[dict, Callable]] = {
    "heston-calib": ({**_CALIBRATION, "model": {
        "s0": 1.0, "v0": 0.08, "mu": 0.001, "kappa": 0.5, "theta": 0.15, "sigma": 0.25,
        "rho": -0.5}}, lambda model: HestonParams(**model)),
    "cantor-calib": ({**_CALIBRATION, "model": {"s0": [0.0], "vol_kind": "tanh", "rho": 0.0}},
                     lambda model: CantorParams(**model)),
    "heston2-pricing": ({**_PRICING, "model": {
        "asset1": {"s0": 100.0, "v0": 0.04, "mu": 0.0, "kappa": 2.0, "theta": 0.04,
                   "sigma": 0.5, "rho": -0.6},
        "asset2": {"s0": 80.0, "v0": 0.09, "mu": 0.0, "kappa": 1.8, "theta": 0.09,
                   "sigma": 0.6, "rho": -0.5},
        # correlations of the drivers (B1, B2, W1, W2)
        "corr4": [[1.0, 0.3, -0.6, 0.0], [0.3, 1.0, 0.0, -0.5],
                  [-0.6, 0.0, 1.0, 0.5], [0.0, -0.5, 0.5, 1.0]]}},
        lambda model: Heston2Params(HestonParams(**model["asset1"]),
                                    HestonParams(**model["asset2"]), model["corr4"])),
    "cantor2-pricing": ({**_PRICING, "model": {
        "s0": [100.0, 80.0], "vol_kind": "linear", "nu": [0.2, 0.3], "rho": 0.6}},
        lambda model: CantorParams(**model)),
    "check": ({"grid": {"T": 1.0, "n": 1}, "signature": {"trunc_level": 1},
               "regression": {"alpha": 0.0}, "samples": {"N_train": 1, "N_test": 1, "N_MC": 1}},
              lambda model: model),
}

#: (experiments, JSON keys) that an experiment reads none of: they are fixed
#: at its reference value.  The check experiment reads no model and no size,
#: the runs read no check section, a calibration fits one training path and
#: has no Monte Carlo cohort, the one-asset Cantor model correlates no
#: increments, and heston2-pricing correlates its drivers by "corr4" alone.
_FIXED = ((("check",), ("model", "grid.T", "grid.n", "signature.trunc_level",
                        "regression.alpha", "samples.N_train", "samples.N_test",
                        "samples.N_MC")),
          (CALIBRATION_IDS + PRICING_IDS, ("check.filter", "check.inject_fault")),
          (CALIBRATION_IDS, ("samples.N_train", "samples.N_MC")),
          (("cantor-calib",), ("model.rho",)),
          (("heston2-pricing",), ("model.asset1.rho", "model.asset2.rho")))


def _at(data, key: str):
    """The value at the dotted JSON ``key`` of ``data``; None where a section
    or the key is missing, as a reference leaves out its null values."""
    for part in key.split("."):
        data = data.get(part) if isinstance(data, dict) else None
    return data


def _reference(experiment: str) -> tuple[dict, Callable]:
    """The reference JSON of ``experiment`` and the parser of its model."""
    if experiment not in _REFERENCE:
        raise ValueError(f"unknown experiment {experiment!r}; choose from {EXPERIMENT_IDS}")
    return _REFERENCE[experiment]


def _memory_bound() -> tuple[int, str] | None:
    """The bytes a run's arrays can take at most, and what sets them: the
    machine's physical memory, or the process's address-space limit (the
    soft ``RLIMIT_AS``) where that is finite and smaller; None where
    neither can be read."""
    bounds = []
    try:
        bounds.append((os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"),
                       "of physical memory"))
    except (AttributeError, ValueError, OSError):
        pass
    try:
        import resource
        soft = resource.getrlimit(resource.RLIMIT_AS)[0]
        if soft != resource.RLIM_INFINITY:
            bounds.append((soft, "of the process's address-space limit (RLIMIT_AS)"))
    except (ImportError, AttributeError, ValueError, OSError):
        pass
    return min(bounds, default=None)


def check_array_size(array: str, keys: Sequence[tuple[str, int]],
                     factors: Sequence[tuple[int, int]]) -> None:
    """Raise ``ValueError`` when the float64 ``array`` of a run, of
    prod(base**power) values over its (base, power) ``factors``, needs more
    bytes than the smaller of the machine's physical memory and the
    process's finite address-space limit; the message names the config
    ``keys``, (key, value) pairs, that its size grows with, and the bound.
    The size is compared in logarithms, so that it is known before anything
    is allocated, however large; where neither bound can be read, nothing
    is checked."""
    bound = _memory_bound()
    if bound is None:
        return
    limit, what = bound
    if (math.log(8) + sum(power * math.log(base) for base, power in factors)
            > math.log(limit)):
        named = ", ".join(f"{key!r} {value}" for key, value in keys)
        shape = " x ".join(str(base) if power == 1 else f"{base}**{power}"
                           for base, power in factors)
        raise ValueError(f"too large to run with {named}: {array}, {shape} float64 "
                         f"values, needs more than the {limit / 2 ** 30:.1f} GiB {what}")


def _row_width(letters: int, level: int) -> int:
    """1 + L + ... + L**N, the columns of a signature row to level N over
    L >= 2 letters.  Past level 64 the row has more than 2**64 columns,
    more float64 values than any memory holds, so the count stops there."""
    return (letters ** (min(level, 64) + 1) - 1) // (letters - 1)


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
        reference, parse = _reference(self.experiment)
        model_type = type(parse(reference.get("model")))
        if self.experiment != "check" and type(self.model) is not model_type:
            raise ValueError(f"{self.experiment} needs a {model_type.__name__} 'model', "
                             f"got {type(self.model).__name__}")
        data = self.to_json_dict()
        for experiments, keys in _FIXED:
            for key in keys:
                ref, value = _at(reference, key), _at(data, key)
                if self.experiment in experiments and value != ref:
                    raise ValueError(f"{self.experiment} reads no {key!r}: it must be "
                                     f"{json.dumps(ref)}, got {value!r}")
        if self.experiment != "check":
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
            if self.experiment in PRICING_IDS and self.n_mc < 2:
                raise ValueError("pricing needs N_MC >= 2 for the Monte Carlo "
                                 "confidence interval")
            if self.experiment in PRICING_IDS and self.alpha == 0:
                raise ValueError("pricing needs alpha > 0: the time coordinates "
                                 "(t), (t,t), ... are equal on every path, so at "
                                 "alpha 0 the ridge Gram is singular whatever "
                                 "N_train is")
            for array in self._largest_arrays():
                check_array_size(*array)
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

    def _largest_arrays(self) -> list[tuple]:
        """The largest float64 arrays of a run, sized from the config alone,
        as :func:`check_array_size` arguments.  Both experiments' include
        the chunk buffers of their processes: one buffer of
        :func:`_chunk_values` for at most a chunk's paths (``_TEST_CHUNK``
        test paths, or ``_PRICING_CHUNK`` paths) in each of :func:`_workers`
        processes, which share the physical memory.  A calibration's others
        are its training signature trajectory (three letters to level N,
        N + 1 for heston-calib), the per-path MSEs of its test paths (one
        row per scheme, which the caller joins into a copy of one row at a
        time), the largest of its schemes' lasso Grams (two p x p arrays
        for p functionals: the solver forms the Gram's block of nonzero
        columns while the Gram is alive), that Gram beside the homotopy's
        active-set factor (k x k) and active columns (p x k), counted as
        p x (p + 2k) for k = min(n + 1, p), as many active columns as the
        training design has rows, and the dense functional coefficients
        (one row per word to the functionals' level, one column per
        functional).  A pricing run's others are the feature rows of all
        paths (the two joint rows, to level N over three and six letters)
        and the ridge Gram of the widest design, the joint left-point row,
        counted twice: the solver holds the Gram and its Cholesky factor."""
        n, N = ("grid.n", self.grid_n), ("signature.trunc_level", self.trunc_level)
        level = self.trunc_level
        calibration = self.experiment in CALIBRATION_IDS
        total = self.n_test if calibration else self.n_train + self.n_test + self.n_mc
        in_flight = min(_workers() * (_TEST_CHUNK if calibration else _PRICING_CHUNK), total)
        buffers = ("the chunk buffers of the processes", (n,),
                   ((_chunk_values(self, 1), 1), (in_flight, 1)))
        if calibration:
            heston = self.experiment.startswith("heston")
            # (letters, top level, count) of each scheme's functionals
            schemes = ([(3, level + 1, _row_width(3, level))] if heston else
                       [(2, level, _row_width(2, level)), (3, level, _row_width(3, level - 1))])
            letters, top, p = max(schemes, key=lambda s: _row_width(s[0], s[1]) * s[2])
            widest = max(s[2] for s in schemes)
            active = min(self.grid_n + 1, widest)
            return [("the training signature trajectory", (n, N),
                     ((self.grid_n + 1, 1), (3, level + heston))),
                    buffers,
                    ("the per-path MSEs of the test paths", (("samples.N_test", total),),
                     ((len(SCHEMES) + 1, 1), (total, 1))),
                    ("the lasso Gram", (N,), ((widest, 2), (2, 1))),
                    ("the lasso Gram with its active-set factor and columns", (n, N),
                     ((widest, 1), (widest + 2 * active, 1))),
                    ("the functionals' dense coefficients", (N,),
                     ((_row_width(letters, top), 1), (p, 1)))]
        samples = (("samples.N_train", self.n_train), ("samples.N_test", self.n_test),
                   ("samples.N_MC", self.n_mc))
        return [buffers,
                ("the feature rows of all paths", samples + (N,),
                 ((total, 1), (_row_width(3, level) + _row_width(6, level), 1))),
                ("the ridge Gram", (N,), ((_row_width(6, level), 2), (2, 1)))]

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
        data: dict = {}
        for key, attribute in _KEYS:
            section, _, leaf = key.rpartition(".")
            node = data.setdefault(section, {}) if section else data
            value = getattr(self, attribute)
            node[leaf] = dataclasses.asdict(value) if dataclasses.is_dataclass(value) else value
        data["regression"]["kind"] = self.regression_kind
        return data

    @classmethod
    def from_json_dict(cls, data: dict) -> "ExperimentConfig":
        """Inverse of :meth:`to_json_dict`.  ``data`` must be complete and
        typed: the CLI merges a config file over the reference first."""
        values = {attribute: functools.reduce(operator.getitem, key.split("."), data)
                  for key, attribute in _KEYS}
        values["model"] = _reference(values["experiment"])[1](values["model"])
        config = cls(**values)
        kind = data["regression"]["kind"]
        if kind != config.regression_kind:
            raise ValueError(f"{config.experiment} fits with {config.regression_kind}: "
                             f"'regression.kind' must be {config.regression_kind!r}, "
                             f"got {kind!r}")
        return config


def config_hash(config: ExperimentConfig) -> str:
    """Stable short hash of the canonical config JSON (out_dir excluded)."""
    data = config.to_json_dict()
    data.pop("out_dir", None)
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def default_config(experiment: str, master_seed: int = 0, **overrides) -> ExperimentConfig:
    """Reference configuration of each experiment (fixed model parameters,
    full sample sizes); keyword overrides replace individual fields."""
    reference, parse = _reference(experiment)
    values = {attribute: _at(reference, key) for key, attribute in _KEYS}
    values.update(experiment=experiment, model=parse(values["model"]),
                  master_seed=master_seed)
    return ExperimentConfig(**{**values, **overrides})


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _SchemePlan:
    """How one scheme turns a row of a driver block of
    :func:`_calibration_paths` into regression features: ``driver(times,
    row)`` builds the training path whose signature is paired with the
    functionals, from the row's leading columns, as many as the
    functionals' alphabet has letters.  The test chunks read those columns
    of their blocks directly.  The scheme's gamma is ``GAMMAS[scheme]`` and
    its signature level the functionals' ``trunc_level``."""

    driver: Callable[[np.ndarray, np.ndarray], SamplePath]
    functionals: tuple[TensorPoly, ...]
    labels: tuple[Word, ...]


def _heston_driver(times: np.ndarray, row: np.ndarray) -> SamplePath:
    base = SamplePath(times, row[:, 1:3], Alphabet(2))
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
            "strat": _SchemePlan(_heston_driver, strat_fn, labels),
            "ito": _SchemePlan(_heston_driver, ito_fn, labels),
        }
    if config.experiment == "cantor-calib":
        strat_alphabet = Alphabet(1, has_time=True)
        strat_labels = enumerate_words(strat_alphabet, N)
        strat_fn = tuple(TensorPoly.basis(strat_alphabet, N, w) for w in strat_labels)

        def strat_driver(times: np.ndarray, row: np.ndarray) -> SamplePath:
            base = SamplePath(times, row[:, 1], Alphabet(1))
            return augment_path(base, 0.5, include_time=True, include_brackets=False)

        ito_alphabet = Alphabet(1, has_time=True, has_brackets=True)
        ito_labels = enumerate_words(Alphabet(1, has_time=True, has_brackets=True), N - 1)
        ito_fn = tuple(TensorPoly.basis(ito_alphabet, N, I + (1,)) for I in ito_labels)

        def ito_driver(times: np.ndarray, row: np.ndarray) -> SamplePath:
            # bracket column is the exact clock C(t): [W_C]_t = C(t)
            return SamplePath(times, row, ito_alphabet)

        return {
            "strat": _SchemePlan(strat_driver, strat_fn, strat_labels),
            "ito": _SchemePlan(ito_driver, ito_fn, ito_labels),
        }
    raise ValueError(f"{config.experiment!r} is not a calibration experiment")


def _calibration_paths(config: ExperimentConfig, grid: SimGrid, start: int, stop: int,
                       buffer: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The prices S, (B, n+1), of the calibration paths ``start .. stop - 1``
    of ``grid`` (path 0 is the training path, the others are test paths),
    and their driver block, (B, n+1, 3), both views of ``buffer``, whose
    leading :func:`_chunk_values` values they take.

    The paths are simulated into the buffer's head through the simulator's
    ``out``: Heston's prices and variances, or the Cantor-clock prices and
    the increments of W_C.  Prices whose squares can overflow float64 when a
    fit or a score sums them (their peak is not at most sqrt(max / (n+1)))
    are a ``ValueError`` that names the training target or the test paths,
    raised before any driver is recovered.  The driver block follows right
    after the simulator's values, (n+1, 3, B) paths last: the time column,
    then W_Q and B_Q, recovered by :func:`heston_drivers`, or W_C, summed
    from its increments by :func:`cumsum0`, and the clock C."""
    n, paths = grid.n, stop - start
    heston = config.experiment == "heston-calib"
    simulate = simulate_heston_batch if heston else simulate_cantor_sde_batch
    simulated = simulate(config.model, grid, range(start, stop), out=buffer)
    S = simulated["S"] if heston else simulated["S"][:, :, 0]
    peak = float(np.max(np.abs(S)))
    if not peak <= math.sqrt(sys.float_info.max / (n + 1)):
        what = ("the training target" if start == 0
                else f"the target of test paths {start}..{stop - 1}")
        raise ValueError(f"{config.experiment}: {what} reaches {peak:.3e}, "
                         "and the sum of its squares can overflow float64")
    head = simulation_values(config.model, n, paths)
    block = buffer[head:head + (n + 1) * 3 * paths].reshape(n + 1, 3, paths) \
        .transpose(2, 0, 1)
    block[:, :, 0] = grid.times
    if heston:
        heston_drivers(S, simulated["V"], config.model.sigma, out=block[:, :, 1:])
    else:
        cumsum0(simulated["dW_C"][:, :, 0].T, out=block[:, :, 1].T)
        block[:, :, 2] = cantor_function(grid.times, config.model.cantor_depth)
    return S, block


#: Test paths per batched signature pass of a calibration.
_TEST_CHUNK = 100


def _fold(coeffs: np.ndarray, functionals: Sequence[TensorPoly]) -> TensorPoly:
    """The fitted functional sum_j coeffs[j] * functionals[j] as one tensor."""
    zero = TensorPoly.zero(functionals[0].alphabet, functionals[0].trunc_level)
    return sum((f.scale(float(c)) for c, f in zip(coeffs, functionals)), zero)


#: A scheme's fit as the test chunks read it: its intercept and its folded
#: functional sum_j beta_j f_j, whose letters are the driver block's
#: leading columns that the scheme reads.
_Fits = dict[str, tuple[float, TensorPoly]]


def _score_chunk(config: ExperimentConfig, fits: _Fits, lo: int, hi: int,
                 buffer: np.ndarray) -> tuple[dict[str, np.ndarray], dict[str, list]]:
    """Score each scheme's fit on test paths ``lo + 1 .. hi`` (path 0 is
    the training path): each scheme's per-path out-of-sample MSE, in path
    order, and, where ``lo`` is 0, the first test path's target and each
    scheme's prediction of it, as trajectory columns.

    The chunk's paths go from the simulator to their driver block in the
    process's flat float64 ``buffer`` by :func:`_calibration_paths`, on the
    test grid.  Each scheme pairs the block's leading columns, one per
    letter of its folded fit, through :func:`functional_paths`, and is
    scored by one row-wise :func:`mse`."""
    S, values = _calibration_paths(config, config.test_grid(), lo + 1, hi + 1, buffer)
    mses = {}
    trajectory = {"target": S[0].tolist()} if lo == 0 else {}
    for scheme in SCHEMES:
        intercept, ell = fits[scheme]
        letters = ell.alphabet.total_letters
        pred = functional_paths(values[:, :, :letters], GAMMAS[scheme], [ell])[..., 0]
        pred += intercept
        mses[scheme] = mse(pred, S)
        if lo == 0:
            trajectory[f"pred_{scheme}"] = pred[0].tolist()
    return mses, trajectory


def _chunk_values(config: ExperimentConfig, paths: int, n: int | None = None) -> int:
    """The float64 values of the buffer of a chunk of ``paths`` paths.  A
    calibration's are those of :func:`_calibration_paths` on a grid of
    ``n`` steps (where None, the test grid's grid_n // 2): the simulator's
    (:func:`simulation_values`) and the driver block's, 3 x (n+1) per path
    for the widest driver's three columns; a pricing chunk's are its joint
    driver block, 6 x (n+1) per path, in which the simulator's buffer (at
    most as many values) lies."""
    if config.experiment in CALIBRATION_IDS:
        n = config.grid_n // 2 if n is None else n
        return simulation_values(config.model, n, paths) + 3 * (n + 1) * paths
    return 6 * (config.grid_n + 1) * paths


def _chunked(step: Callable, args: tuple, chunk: int, caller: int | None,
             start: int, stop: int) -> list:
    """``step(*args, lo, hi, buffer)`` over paths ``start .. stop - 1``, in
    chunks of ``chunk`` paths counted from ``start``; the chunks' results
    in path order.

    The run allocates one flat float64 buffer, sized for its longest chunk
    by :func:`_chunk_values` of its config ``args[0]``, and every chunk
    works in it: the chunks' memory is not freed and faulted in again from
    one chunk to the next.  A forked worker's run is given the pid of the
    ``caller`` that forked it, and before each chunk it leaves through
    ``os._exit`` once its parent is another process, so a worker whose
    caller was killed runs at most one chunk longer; the caller's own run
    is given None."""
    buffer = np.empty(_chunk_values(args[0], min(chunk, stop - start)))
    results = []
    for lo in range(start, stop, chunk):
        if caller is not None and os.getppid() != caller:
            os._exit(1)
        results.append(step(*args, lo, min(lo + chunk, stop), buffer))
    return results


def _on_processes(step: Callable, args: tuple, total: int, chunk: int) -> list:
    """``step(*args, lo, hi, buffer)`` over the chunks of paths ``0 ..
    total - 1``; the chunks' results in path order.

    The paths are split into contiguous runs of nearly equal size, one run
    per process, and each process walks its run through :func:`_chunked`.
    There are :func:`_workers` processes, at most one per chunk of
    ``chunk`` paths, and run k of W starts at path ``total * k // W``; a
    run counts its chunks from its own start, so the runs need not end on
    chunk boundaries.  The caller forks a worker for every run but the
    first (:func:`_fork`), runs the first itself, and only then reads each
    worker's pickled results from its pipe, in path order
    (:func:`_worker_result`), so no worker's result lies beside the
    caller's working memory, and no thread is started.  Each process
    simulates only its own paths, whose draws are their own per-path
    streams, and every kernel is elementwise per path, so no bit depends on
    the runs.  The workers are forked, not spawned, because a spawned
    worker imports numpy and this package afresh on every run; a fork
    copies only the calling thread, so where the process has other threads
    (whose locks would stay locked in the child), where ``os.fork`` does
    not exist, or where there is one process or one chunk, the caller runs
    every path itself.  A worker inherits the caller's context, numpy's
    error state included.  Every worker is reaped before the call returns
    or raises, and the first failure in path order is raised, as one
    process would raise it, once every worker has ended: a worker whose
    result is no longer read is killed.  A worker whose caller is killed
    ends before its next chunk.
    """
    processes = min(_workers(), -(-total // chunk))
    if processes > 1 and (not hasattr(os, "fork") or threading.active_count() > 1):
        processes = 1
    bounds = [total * k // processes for k in range(processes + 1)]
    runs = list(zip(bounds, bounds[1:]))
    caller = os.getpid()
    workers: list[tuple[int, int, tuple[int, int]]] = []  # (pid, read end, run)
    try:
        for run in runs[1:]:
            workers.append(_fork(_chunked, (step, args, chunk, caller), run,
                                 [read for _, read, _ in workers]))
        results = _chunked(step, args, chunk, None, *runs[0])
        while workers:
            results += _worker_result(*workers.pop(0))
        return results
    finally:
        for pid, read, _ in workers:
            os.close(read)
            _kill(pid)
            os.waitpid(pid, 0)


def _kill(pid: int) -> None:
    """Kill the worker ``pid``, running or ended but not yet reaped.
    ``signal`` is imported here, not with the package: only a failed run
    kills a worker."""
    import signal
    os.kill(pid, signal.SIGKILL)


def _fork(task: Callable, args: tuple, run: tuple[int, int],
          inherited: Sequence[int]) -> tuple[int, int, tuple[int, int]]:
    """Fork a worker that runs ``task(*args, *run)`` and writes the pickled
    ``(True, result)``, or ``(False, exception)``, into a new pipe; returns
    its pid, the read end of its pipe and ``run``.  The worker closes the
    read ends it ``inherited`` from the workers forked before it, and it
    leaves only through ``os._exit``: it runs none of the caller's exit
    handlers, returns into none of its frames and flushes none of the
    Python output buffers it copied, so no pending output of the caller is
    written twice.  A result or an error that cannot be pickled is sent as
    a ``RuntimeError`` that says so."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read)
        os.close(write)
        raise
    if pid:
        os.close(write)
        return pid, read, run
    code = 1
    try:
        for fd in (read, *inherited):
            os.close(fd)
        try:
            outcome = (True, task(*args, *run))
        except BaseException as exc:
            outcome = (False, exc)
        try:
            payload = pickle.dumps(outcome, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            payload = pickle.dumps((False, RuntimeError(
                f"the worker process of paths {run[0]}..{run[1] - 1} cannot send its "
                f"{'result' if outcome[0] else 'error'}: {exc!r}")))
        del outcome
        with open(write, "wb") as pipe:
            pipe.write(payload)
        code = 0
    finally:
        os._exit(code)


def _worker_result(pid: int, read: int, run: tuple[int, int]):
    """The result that the worker ``pid`` of paths ``run`` sends through
    the read end ``read`` of its pipe (:func:`_fork`), unpickled as it is
    read; its error is raised.  The pipe is closed and the worker reaped
    whatever happens; a worker that is still running when the read fails is
    killed first.  A worker that ends before it has sent its whole result
    is a ``RuntimeError`` that names its paths and how it ended."""
    outcome = None
    try:
        with open(read, "rb", closefd=False) as pipe:
            outcome = pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError):
        pass
    except BaseException:
        _kill(pid)
        raise
    finally:
        os.close(read)
        status = os.waitpid(pid, 0)[1]
    if outcome is None:
        code = os.waitstatus_to_exitcode(status)
        how = f"exit status {code}" if code >= 0 else f"signal {-code}"
        raise RuntimeError(f"the worker process of paths {run[0]}..{run[1] - 1} ended "
                           f"with {how} before it sent its result")
    ok, value = outcome
    if not ok:
        raise value
    return value


def run_calibration(config: ExperimentConfig) -> dict:
    """Fit both schemes on one training trajectory, evaluate in-sample and on
    fresh out-of-sample paths over [0, T/2]; returns (and optionally writes)
    the MSE summary, fitted functionals, and a test-path trajectory table.

    Every path, the training path and each chunk of test paths, goes from
    the simulator to its driver block by :func:`_calibration_paths`.  Both
    schemes are fitted first, from the training path alone, in a buffer of
    its own: the training design goes through :func:`gamma_signature` and
    :func:`functional_matrix` of each scheme's driver, built from the
    block's one row, and the in-sample MSE is the lasso's own.  The test
    paths are simulated after the fits, so that the training arrays are
    freed first.  Each scheme's fit is folded into one functional, and the
    test paths are simulated and scored in chunks of ``_TEST_CHUNK`` by
    :func:`_score_chunk`, on the processes of :func:`_on_processes`; the
    per-path MSEs are reduced in path order, so the outputs do not depend
    on the chunks or the number of processes.
    A target whose squares can overflow float64 (the training target before
    any fit, or a chunk's test paths before their drivers), a failed lasso
    and a non-finite MSE (naming the scheme) are ``ValueError``s raised
    before any file is written.
    """
    if config.experiment not in CALIBRATION_IDS:
        raise ValueError(f"{config.experiment!r} is not a calibration experiment")
    plans = _calibration_plans(config)
    s0 = (config.model.s0 if config.experiment == "heston-calib"
          else config.model.s0[0])

    train_grid = config.grid()
    S, block = _calibration_paths(config, train_grid, 0, 1,
                                  np.empty(_chunk_values(config, 1, train_grid.n)))
    y_train = S[0]

    fits, folded = {}, {}
    for scheme in SCHEMES:
        plan = plans[scheme]
        driver = plan.driver(train_grid.times, block[0])
        traj = gamma_signature(driver, GAMMAS[scheme], plan.functionals[0].trunc_level)
        X_train = functional_matrix(traj, plan.functionals)
        try:
            fit = lasso_fit(X_train, y_train, config.alpha, words=plan.labels,
                            intercept=s0)
        except ValueError as exc:
            raise ValueError(f"{config.experiment} {scheme} scheme: {exc}") from None
        if not fit.diagnostics["converged"]:
            print(f"warning: {config.experiment} {scheme} lasso fit not converged "
                  f"after n_iter={fit.diagnostics['n_iter']} active-set steps",
                  file=sys.stderr)
        fits[scheme] = fit
        folded[scheme] = fit.intercept, _fold(fit.coeffs, plan.functionals)
    del S, y_train, block, driver, traj, X_train

    chunks = _on_processes(_score_chunk, (config, folded), config.n_test, _TEST_CHUNK)
    trajectory = {"t": list(config.test_grid().times), **chunks[0][1]}
    report: dict = {
        "experiment": config.experiment,
        **_stamp(config),
        "schemes": {},
    }
    for scheme in SCHEMES:
        fit = fits[scheme]
        in_mse = fit.diagnostics["in_sample_mse"]
        out_mse = float(np.mean(np.concatenate([mses[scheme] for mses, _ in chunks])))
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

#: Feature family -> the assets it reads, as base letters of the two-asset
#: alphabet.  A family's features are the end-point signature of (t, its
#: log-prices) or, in the left-point scheme, of (t, its log-prices, their
#: brackets).  The signature of a path restricted to some of its coordinates
#: is the matching restriction of the full signature, so every family's row
#: is a fixed column subset of the joint two-asset row of its scheme.
_PRICING_FAMILIES: dict[str, tuple[int, ...]] = {"1": (1,), "2": (2,), "12": (1, 2)}

#: Paths per simulated chunk of a pricing run.
_PRICING_CHUNK = 600


def _workers() -> int:
    """Workers of a run: the processes over which :func:`_on_processes`
    splits a calibration's test paths and a pricing run's paths, and so
    the chunks in flight, one per process.  Two, or one
    where the process may run on one core only (its CPU affinity, or the
    machine's core count where that cannot be read)."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count() or 1
    return min(2, cores)


def _joint_alphabet(scheme: str) -> Alphabet:
    """Letters of a scheme's joint driver: (t, x1, x2) and, in the
    left-point scheme, the brackets [1,1], [1,2], [2,2]."""
    return Alphabet(2, has_time=True, has_brackets=(scheme == "ito"))


def _family_columns(family: str, scheme: str, N: int) -> tuple[tuple[Word, ...], np.ndarray]:
    """A family's feature words and their columns in the joint row [1,
    level 1, ..., level N] of its scheme, whose column order is
    :func:`enumerate_words` of the joint alphabet.  The family keeps the
    joint words whose letters are time, its assets and their brackets; a
    letter's rank among those is its letter in the family's own alphabet,
    so the words come in that alphabet's graded-lex order."""
    joint = _joint_alphabet(scheme)
    reads = {0, *_PRICING_FAMILIES[family]}
    rank = {letter: k for k, letter in enumerate(
        letter for letter in joint.letters
        if set(joint.bracket_pair(letter) if joint.is_bracket(letter) else (letter,)) <= reads)}
    kept = [(column, word) for column, word in enumerate(enumerate_words(joint, N))
            if all(letter in rank for letter in word)]
    return (tuple(tuple(rank[letter] for letter in word) for _, word in kept),
            np.array([column for column, _ in kept]))


#: Time rows per block in which a pricing chunk writes its log-prices.
_LOG_ROWS = 32


def _pricing_chunk(config: ExperimentConfig, start: int, stop: int, buffer: np.ndarray) \
        -> tuple[dict[str, np.ndarray], dict[str, np.ndarray], np.ndarray]:
    """Simulate paths ``start..stop-1`` and return their rows of each
    scheme's joint row, their realized statistics and their mask of
    positive prices, none of them a view of ``buffer``.

    The chunk works in the leading :func:`_chunk_values` values of the
    process's flat float64 ``buffer``: the joint driver block (t, x1, x2,
    [1,1], [1,2], [2,2]), one column after another, each stored paths last,
    (n+1, B), and viewed as (B, n+1, 6).  The simulator works in the last
    :func:`simulation_values` of those values, from column x2 or beyond,
    and its prices lie at or beyond x2's first row.  Once the mask is taken
    (a path with a non-positive or non-finite price is masked out, its
    prices read as 1), the shifted log-prices are written into the columns
    x1 and x2 in forward blocks of ``_LOG_ROWS`` time rows, each block's
    prices read into a block-sized scratch first: row k of x2 lies over
    simulator values of time row k or earlier (row k/4 of the two-asset
    Heston buffer, four values per path and step), which an earlier block,
    or this one, has read.  (A whole-chunk ``np.log(S, out=...)`` would see the overlap and
    copy all of S.)  Then the time column, and the bracket columns, whose
    end row gives the statistics, are written in place.  Every column of
    the block is rewritten by each chunk.  One joint end-point pass per
    scheme reads the block, left-point first; the mid-point pass reads its
    first three columns (t, x1, x2).  Each pass's row is [1, level 1, ...,
    level N].
    """
    paths, n = stop - start, config.grid_n
    simulate = (simulate_heston2_batch if config.experiment == "heston2-pricing"
                else simulate_cantor_sde_batch)
    end = _chunk_values(config, paths)
    S = simulate(config.model, config.grid(), range(start, stop),
                 out=buffer[end - simulation_values(config.model, n, paths):end])["S"]
    positive = S > 0.0
    np.less(S, np.inf, out=positive, where=positive)  # and finite, in place
    ok = np.all(positive, axis=(1, 2))
    np.copyto(S, 1.0, where=~positive)
    del positive
    values = buffer[:end].reshape(6, n + 1, paths).transpose(2, 1, 0)
    x = values[:, :, 1:3]
    # laid out as S, paths last, so that every loop runs over paths
    scratch = np.empty((min(_LOG_ROWS, n + 1), 2, paths)).transpose(2, 0, 1)
    for lo in range(0, n + 1, _LOG_ROWS):
        logs = np.log(S[:, lo:lo + _LOG_ROWS], out=scratch[:, :min(_LOG_ROWS, n + 1 - lo)])
        if lo == 0:
            first = logs[:, :1].copy()
        np.subtract(logs, first, out=x[:, lo:lo + _LOG_ROWS])
    del scratch, logs
    values[:, :, 0] = config.grid().times
    stats = realized_stats_batch(bracket_columns(x, out=values[:, :, 3:])[:, -1])
    feats = {}
    for scheme in ("ito", "strat"):
        driver = values[:, :, :_joint_alphabet(scheme).total_letters]
        ends = endpoint_signature_batch(driver, GAMMAS[scheme], config.trunc_level)
        feats[scheme] = np.concatenate([np.ones((paths, 1))] + ends, axis=1)
    return feats, stats, ok


def _joined(parts: Sequence[tuple[dict, dict, np.ndarray]]) \
        -> tuple[dict[str, np.ndarray], dict[str, np.ndarray], np.ndarray]:
    """The (joint rows, statistics, mask) of consecutive chunks, each as
    :func:`_pricing_chunk` returns it, joined in path order."""
    return ({scheme: np.concatenate([feats[scheme] for feats, _, _ in parts])
             for scheme in SCHEMES},
            {key: np.concatenate([stats[key] for _, stats, _ in parts]) for key in parts[0][1]},
            np.concatenate([ok for _, _, ok in parts]))


def _pricing_features(config: ExperimentConfig) \
        -> tuple[dict[str, np.ndarray], dict[str, np.ndarray], np.ndarray]:
    """Each scheme's joint row, realized statistics and the mask of paths
    with positive prices, over all N_train + N_test + N_MC paths; a feature
    family's row is its columns of its scheme's joint row
    (:func:`_family_columns`).

    The paths are priced in chunks of ``_PRICING_CHUNK`` by
    :func:`_pricing_chunk`, on the processes of :func:`_on_processes`, so
    every process has one chunk in flight.  The chunks' rows, statistics
    and masks are joined once, in path order, so no bit and no key order
    depends on the processes.
    """
    total = config.n_train + config.n_test + config.n_mc
    return _joined(_on_processes(_pricing_chunk, (config,), total, _PRICING_CHUNK))


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
    feats, stats, ok_all = _pricing_features(config)

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
                f"{rejected} of {total} paths were rejected for a non-positive or "
                f"non-finite price; pricing needs at least {need}")
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
        **_stamp(config),
        "strikes": strikes,
        "rejected_paths": rejected,
        "degenerate_corr_paths": degenerate_corr,
        "payoffs": [],
    }
    by_family: dict[str, list] = {family: [] for family in _PRICING_FAMILIES}
    for kind, assets in PAYOFF_ORDER:
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
        report["payoffs"].append(entry)
        by_family["".join(str(a) for a in assets)].append((values, entry))
    for scheme in SCHEMES:
        for family, payoffs in by_family.items():
            words, columns = _family_columns(family, scheme, config.trunc_level)
            X = {name: feats[scheme][np.ix_(mask, columns)] for name, mask in cohorts.items()}
            for values, entry in payoffs:
                fit = ridge_fit(X["train"], values[cohorts["train"]], config.alpha,
                                words=words)
                entry[scheme] = {
                    "in_sample_mse": fit.diagnostics["in_sample_mse"],
                    "out_sample_mse": mse(predict(fit, X["test"]), values[cohorts["test"]]),
                    "price": float(np.mean(predict(fit, X["mc"]))),
                    "fit": fit.to_json_dict(),
                }
    if config.out_dir:
        _write_pricing_outputs(config, report)
    return report


# ---------------------------------------------------------------------------
# Output files
# ---------------------------------------------------------------------------

def _stamp(config: ExperimentConfig) -> dict:
    """The keys that stamp every report and output file with its run."""
    return {"config_hash": config_hash(config), "master_seed": config.master_seed}


def _write_outputs(config: ExperimentConfig, tables: dict[str, Sequence[Sequence]],
                   jsons: dict[str, dict]) -> None:
    """Write the stamped files of a run into ``config.out_dir``, made if
    missing: each CSV table of ``tables`` (file name -> rows of cells, the
    column names first; a number is written as its float ``repr``) under
    the comment ``# config_hash=... master_seed=...``, and each JSON payload
    of ``jsons`` with the stamp keys first.  A directory or file that cannot
    be written is a ``ValueError`` that names ``out_dir``."""
    stamp = _stamp(config)
    try:
        os.makedirs(config.out_dir, exist_ok=True)
        for name, rows in tables.items():
            with open(os.path.join(config.out_dir, name), "w", encoding="utf-8",
                      newline="") as fh:
                fh.write("# " + " ".join(f"{key}={value}" for key, value in stamp.items()) + "\n")
                fh.writelines(",".join(cell if isinstance(cell, str) else repr(float(cell))
                                       for cell in row) + "\n" for row in rows)
        for name, payload in jsons.items():
            with open(os.path.join(config.out_dir, name), "w", encoding="utf-8") as fh:
                fh.write(json.dumps({**stamp, **payload}, indent=2) + "\n")
    except OSError as exc:
        raise ValueError(f"cannot write to 'out_dir' {config.out_dir!r}: {exc}") from None


def _write_calibration_outputs(config: ExperimentConfig, report: dict) -> None:
    schemes, traj = report["schemes"], report["trajectory"]
    columns = ("t", "target", "pred_strat", "pred_ito")
    _write_outputs(config, {
        "mse_summary.csv": [("scheme", "in_sample_mse", "out_sample_mse")] + [
            (scheme, schemes[scheme]["in_sample_mse"], schemes[scheme]["out_sample_mse"])
            for scheme in SCHEMES],
        "trajectory.csv": [columns, *zip(*(traj[column] for column in columns))],
    }, {f"fit_{scheme}.json": schemes[scheme]["fit"] for scheme in SCHEMES})


def _write_pricing_outputs(config: ExperimentConfig, report: dict) -> None:
    rows = [(entry, scheme) for entry in report["payoffs"] for scheme in SCHEMES]
    _write_outputs(config, {
        "prices.csv": [("payoff", "scheme", "price", "mc_price", "ci_lo", "ci_hi")] + [
            (e["payoff"], s, e[s]["price"], e["mc_price"], e["ci_lo"], e["ci_hi"])
            for e, s in rows],
        "mse_summary.csv": [("payoff", "scheme", "in_sample_mse", "out_sample_mse")] + [
            (e["payoff"], s, e[s]["in_sample_mse"], e[s]["out_sample_mse"]) for e, s in rows],
    }, {f"fit_{s}.json": {"fits": {e["payoff"]: e[s]["fit"] for e in report["payoffs"]}}
        for s in SCHEMES})


# ---------------------------------------------------------------------------
# Check suites
# ---------------------------------------------------------------------------

def run_checks(config: ExperimentConfig) -> dict:
    """Execute the per-module invariant suites; report is machine readable,
    and written as ``check_report.json`` where ``config.out_dir`` is set.

    ``config.check_filter`` restricts to one module; ``config.inject_fault``
    force-breaks a known property as a negative control (supported:
    "lasso-threshold").
    """
    from . import checks
    report = checks.run_all(module_filter=config.check_filter,
                            inject_fault=config.inject_fault)
    report.update(_stamp(config))
    if config.out_dir:
        _write_outputs(config, {}, {"check_report.json": report})
    return report
