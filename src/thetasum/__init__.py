"""Gaussian-damped Dirichlet sums S(a; w) = sum_{n>=1} exp(-a n^2) / n^w.

Four routes for Re(a) > 0 and real w >= 0: the direct-summation oracle
with a rigorous tail bound, the generic small-a expansion, the
even-exponent Poisson-Jacobi-type transformation and the classical
identity at w = 0.  ``evaluate`` is the one public way to reach a
route: it dispatches on a ``MethodChoice`` and raises DomainError when
the chosen route does not take w.  The package exports ``evaluate``,
the model types, the oracle (``direct_sum``) and the errors; the
routes' own functions and the kernels stay in ``thetasum.engine`` and
``thetasum.specfun``, and the cross-checks, ``remainder_slope`` among
them, in ``thetasum.verify``.
"""

from .engine import evaluate
from .errors import ConvergenceError, DomainError, PrecisionError, ThetaSumError
from .model import (
    OPTIMAL,
    Evaluation,
    Fixed,
    MethodChoice,
    SumSpec,
    TermLog,
    TruncationPolicy,
)
from .oracle import OracleResult, direct_sum

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # model
    "SumSpec",
    "Fixed",
    "OPTIMAL",
    "TruncationPolicy",
    "MethodChoice",
    "TermLog",
    "Evaluation",
    # oracle
    "OracleResult",
    "direct_sum",
    # route
    "evaluate",
    # errors
    "ThetaSumError",
    "DomainError",
    "ConvergenceError",
    "PrecisionError",
]
