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
  augmentation, gamma-signatures from one windowed level recursion, feature
  matrices, path/signature CSV I/O, and ``cumsum0``, the extended-precision
  running sum of brackets, simulator drivers and realized statistics (the
  signature levels carry their own extended-precision sums from window to
  window, and an end-point top level sums in float64).
* :mod:`gammasig.models` -- seeded batch simulators (Heston, two-asset
  Heston, Cantor-clock SDE) returning arrays with one row per path, each
  path drawn from its own reproducible random stream.
* :mod:`gammasig.regress` -- lasso and ridge solvers on signature features.
* :mod:`gammasig.payoffs` -- realized variance/covariance/correlation
  statistics of path batches and swap/call payoffs on them.
* :mod:`gammasig.experiments` -- configured calibration and pricing runs
  with stamped CSV/JSON outputs.
* :mod:`gammasig.checks` -- self-contained invariant suites per module.
* :mod:`gammasig.cli` -- ``gammasig`` command line entry point.

The package namespace is the union of the ``__all__`` lists of the first
six modules.
"""
from __future__ import annotations

from . import experiments, models, payoffs, regress, signature, tensor
from .experiments import *  # noqa: F401,F403
from .models import *  # noqa: F401,F403
from .payoffs import *  # noqa: F401,F403
from .regress import *  # noqa: F401,F403
from .signature import *  # noqa: F401,F403
from .tensor import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = ["__version__", *tensor.__all__, *signature.__all__, *models.__all__,
           *regress.__all__, *payoffs.__all__, *experiments.__all__]
