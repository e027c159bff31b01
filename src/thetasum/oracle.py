"""Ground-truth direct summation of sum_{n>=1} exp(-a n^2) / n^w.

Every expansion in this package is tested against this module.  The
sum is accumulated with compensated summation and stopped by a
rigorous geometric tail bound on the omitted terms; see _tail_bound
for the inequality.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

from .compensated import ComplexSum
from .errors import ConvergenceError, DomainError
from .model import SumSpec

__all__ = ["OracleResult", "direct_sum"]

#: Hard iteration budget; direct summation past this is a sign the
#: caller should be using the expansions instead.
MAX_TERMS = 10_000_000

_EPS_FLOOR = 1e-16
_MACHINE_EPS = sys.float_info.epsilon


@dataclass(frozen=True)
class OracleResult:
    """Direct-summation result with rigorous accuracy accounting.

    ``tail_bound`` bounds the omitted tail exactly; ``rounding_bound``
    estimates accumulated floating-point error as
    n_terms * machine_epsilon * sum |term|.  A comparison against the
    oracle is only meaningful above their sum.
    """

    value: complex
    n_terms: int
    tail_bound: float
    rounding_bound: float

    def noise_floor(self) -> float:
        return self.tail_bound + self.rounding_bound


def _tail_bound(re_a: float, w: float, n: int) -> float:
    """Bound on sum_{k>n} |t_k| after the first n terms.

    For k >= n+1 the term-magnitude ratio satisfies
    |t_{k+1}/t_k| <= exp(-re_a (2n+3)) (the ratio exp(-re_a (2k+1))
    with k >= n+1, and (k/(k+1))^w <= 1 for w >= 0), so the tail is
    dominated by the geometric series
    |t_{n+1}| / (1 - exp(-re_a (2n+3))).
    """
    expo = -re_a * (n + 1.0) ** 2
    mag = math.exp(expo) if expo > -745.0 else 0.0
    if mag == 0.0:
        return 0.0
    denom = -math.expm1(-re_a * (2.0 * n + 3.0))
    return mag / ((n + 1.0) ** w * denom)


def direct_sum(spec: SumSpec, eps: float = 1e-16) -> OracleResult:
    """Sum exp(-a n^2)/n^w until the rigorous tail bound drops to eps.

    eps below 1e-16 is rejected: binary64 cannot certify tighter.
    Raises ConvergenceError when the cutoff would exceed the iteration
    budget (Re(a) too small for direct summation at the requested
    tolerance).
    """
    eps = float(eps)
    if not eps >= _EPS_FLOOR:
        raise DomainError(f"direct_sum requires eps >= {_EPS_FLOOR}, got {eps}")
    a = spec.a
    w = spec.w
    re_a = a.real
    # a-priori reach check so hopeless requests fail fast
    n_est = math.sqrt((-math.log(eps) + 5.0) / re_a)
    if n_est > 1.05 * MAX_TERMS:
        raise ConvergenceError(
            f"direct summation needs ~{n_est:.2e} terms at eps={eps}; "
            "convergence is too slow, use an expansion method"
        )
    acc = ComplexSum()
    abs_acc = 0.0
    n = 0
    while True:
        n += 1
        if n > MAX_TERMS:
            raise ConvergenceError(
                f"direct summation exceeded {MAX_TERMS} terms at eps={eps}; "
                "convergence is too slow, use an expansion method"
            )
        term = cmath.exp(-a * (n * n)) / math.pow(n, w)
        acc.add(term)
        abs_acc += abs(term)
        tb = _tail_bound(re_a, w, n)
        if tb <= eps:
            break
    rounding = n * _MACHINE_EPS * abs_acc
    return OracleResult(value=acc.value, n_terms=n, tail_bound=tb, rounding_bound=rounding)
