"""Discrete gamma-signatures: tensor algebra, path signatures for a family
of stochastic integration schemes, model simulators, signature regression,
payoff evaluation, and the calibration/pricing experiment drivers.

The evaluation-point parameter ``gamma`` selects where integrands are read
within each grid step: 0 is the left point, 1/2 the midpoint average, 1 the
right point.  The package computes truncated signatures of sampled paths
under any such scheme, converts linear functionals between schemes, and uses
signature coordinates as regression features for volatility calibration and
payoff pricing.

Subpackage layout (one module per concern):

* :mod:`gammasig.tensor` -- exact words/polynomials, shuffle, quasi-shuffle,
  group inverse, scheme-conversion functionals.
* :mod:`gammasig.signature` -- sampled paths, Follmer brackets and bracket
  augmentation, gamma-signatures from one batched level step, feature
  matrices, path/signature CSV I/O, and the package's one accumulation
  primitive.
* :mod:`gammasig.models` -- seeded simulators (Heston, two-asset Heston,
  Cantor-clock SDE) with per-path reproducible random streams.
* :mod:`gammasig.regress` -- lasso and ridge solvers on signature features.
* :mod:`gammasig.payoffs` -- realized variance/covariance/correlation
  statistics and swap/call payoffs on them.
* :mod:`gammasig.experiments` -- configured calibration and pricing runs
  with stamped CSV/JSON outputs.
* :mod:`gammasig.checks` -- self-contained invariant suites per module.
* :mod:`gammasig.cli` -- ``gammasig`` command line entry point.
"""
from __future__ import annotations

from .tensor import (
    Alphabet,
    TensorPoly,
    concat,
    enumerate_words,
    graded_lex_key,
    group_inverse,
    ito_strat_functional,
    pair,
    parse_word,
    quasi_shuffle,
    shuffle,
    word_str,
)
from .signature import (
    BracketMatrix,
    SamplePath,
    SigTrajectory,
    augment_path,
    endpoint_signature_batch,
    feature_matrix,
    functional_matrix,
    gamma_signature,
    gamma_signature_chen,
    quadratic_variation,
    read_path_csv,
    sig_increment,
    write_path_csv,
    write_sig_csv,
)
from .models import (
    CantorParams,
    Heston2Params,
    HestonParams,
    SimGrid,
    cantor_function,
    correlated_normals,
    path_rng,
    simulate_cantor_sde,
    simulate_cantor_sde_batch,
    simulate_heston,
    simulate_heston_batch,
    simulate_heston2,
    simulate_heston2_batch,
)
from .regress import RegressionFit, lasso_fit, mse, predict, ridge_fit
from .payoffs import (
    PAYOFF_KINDS,
    PayoffSpec,
    evaluate,
    realized_stats,
    realized_stats_batch,
    statistic_key,
)
from .experiments import (
    PAYOFF_ORDER,
    ExperimentConfig,
    config_hash,
    default_config,
    run_calibration,
    run_checks,
    run_pricing,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # tensor
    "Alphabet",
    "TensorPoly",
    "concat",
    "enumerate_words",
    "graded_lex_key",
    "group_inverse",
    "ito_strat_functional",
    "pair",
    "parse_word",
    "quasi_shuffle",
    "shuffle",
    "word_str",
    # signature
    "BracketMatrix",
    "SamplePath",
    "SigTrajectory",
    "augment_path",
    "endpoint_signature_batch",
    "feature_matrix",
    "functional_matrix",
    "gamma_signature",
    "gamma_signature_chen",
    "quadratic_variation",
    "read_path_csv",
    "sig_increment",
    "write_path_csv",
    "write_sig_csv",
    # models
    "CantorParams",
    "Heston2Params",
    "HestonParams",
    "SimGrid",
    "cantor_function",
    "correlated_normals",
    "path_rng",
    "simulate_cantor_sde",
    "simulate_cantor_sde_batch",
    "simulate_heston",
    "simulate_heston_batch",
    "simulate_heston2",
    "simulate_heston2_batch",
    # regress
    "RegressionFit",
    "lasso_fit",
    "mse",
    "predict",
    "ridge_fit",
    # payoffs
    "PAYOFF_KINDS",
    "PayoffSpec",
    "evaluate",
    "realized_stats",
    "realized_stats_batch",
    "statistic_key",
    # experiments
    "PAYOFF_ORDER",
    "ExperimentConfig",
    "config_hash",
    "default_config",
    "run_calibration",
    "run_checks",
    "run_pricing",
]
