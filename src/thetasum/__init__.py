"""Gaussian-damped Dirichlet sums S(a; w) = sum_{n>=1} exp(-a n^2) / n^w.

Direct summation with a rigorous tail bound, the generic small-a
asymptotic expansion, and the even-exponent Poisson-Jacobi-type
transformation, with optimal-truncation machinery and a verification
suite.  Valid for Re(a) > 0 and real w.
"""

from .engine import (
    classical_pj_rhs,
    eval_even,
    eval_generic,
    evaluate,
    optimal_index_w4,
    remainder_slope,
    singular_term,
    tail_factor,
)
from .errors import (
    ConvergenceError,
    DomainError,
    EvenExponentError,
    MismatchError,
    PoleError,
    PrecisionError,
    RangeError,
    ThetaSumError,
)
from .model import (
    OPTIMAL,
    ErrorTarget,
    Evaluation,
    Fixed,
    MethodChoice,
    OptimalFirstMin,
    SumSpec,
    TermLog,
    TruncationPolicy,
)
from .oracle import OracleResult, direct_sum
from .specfun import (
    EULER_GAMMA,
    bernoulli_even,
    digamma_int,
    gamma_real,
    inv_factorial_coeff,
    inv_factorial_coeff_doubled,
    log_gamma,
    pochhammer,
    zeta_real,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # model
    "SumSpec",
    "Fixed",
    "OptimalFirstMin",
    "OPTIMAL",
    "ErrorTarget",
    "TruncationPolicy",
    "MethodChoice",
    "TermLog",
    "Evaluation",
    # special functions
    "EULER_GAMMA",
    "gamma_real",
    "log_gamma",
    "digamma_int",
    "zeta_real",
    "bernoulli_even",
    "pochhammer",
    "inv_factorial_coeff",
    "inv_factorial_coeff_doubled",
    # oracle
    "OracleResult",
    "direct_sum",
    # engine
    "classical_pj_rhs",
    "singular_term",
    "eval_generic",
    "eval_even",
    "tail_factor",
    "optimal_index_w4",
    "evaluate",
    "remainder_slope",
    # errors
    "ThetaSumError",
    "DomainError",
    "PoleError",
    "RangeError",
    "EvenExponentError",
    "MismatchError",
    "ConvergenceError",
    "PrecisionError",
]
