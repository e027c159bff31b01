"""Gaussian-damped Dirichlet sums S(a; w) = sum_{n>=1} exp(-a n^2) / n^w.

Four routes for Re(a) > 0 and real w >= 0: the direct-summation oracle
with a rigorous tail bound (``direct_sum``), the generic small-a
expansion (``eval_generic``), the even-exponent Poisson-Jacobi-type
transformation (``eval_even``) and the classical identity at w = 0;
``evaluate`` dispatches on a ``MethodChoice`` and is the one entry to
the classical identity.  The package exports the routes, the model
types, the oracle and the errors; the kernels stay in
``thetasum.engine`` and ``thetasum.specfun``, and the cross-checks,
``remainder_slope`` among them, in ``thetasum.verify``.
"""

from .engine import eval_even, eval_generic, evaluate
from .errors import (
    ConvergenceError,
    DomainError,
    EvenExponentError,
    MismatchError,
    PoleError,
    PrecisionError,
    ThetaSumError,
)
from .model import (
    OPTIMAL,
    Evaluation,
    Fixed,
    MethodChoice,
    OptimalFirstMin,
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
    "OptimalFirstMin",
    "OPTIMAL",
    "TruncationPolicy",
    "MethodChoice",
    "TermLog",
    "Evaluation",
    # oracle
    "OracleResult",
    "direct_sum",
    # routes
    "evaluate",
    "eval_generic",
    "eval_even",
    # errors
    "ThetaSumError",
    "DomainError",
    "PoleError",
    "EvenExponentError",
    "MismatchError",
    "ConvergenceError",
    "PrecisionError",
]
