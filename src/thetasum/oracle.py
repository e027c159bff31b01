"""Ground-truth direct summation of sum_{n>=1} exp(-a n^2) / n^w.

Every expansion in this package is tested against this module.  The
cutoff is solved once, before any term is made: the smallest n whose
rigorous geometric tail bound on the omitted terms (see _tail_bound
for the inequality) is within the tolerance, found by galloping out
from a closed-form estimate and bisecting.  The n terms are then summed
with math.fsum, real and imaginary parts apart, in blocks of _BLOCK
terms so that memory stays bounded.  For a real a (Im(a) == 0) the
terms are made in floats, with math.exp, and are the complex terms bit
for bit (see direct_sum); the value's imaginary part is +0.0.
"""

from __future__ import annotations

import cmath
import math
import sys
from typing import NamedTuple

from .errors import ConvergenceError, DomainError
from .model import SumSpec

__all__ = ["OracleResult", "direct_sum"]

#: Hard iteration budget; direct summation past this is a sign the
#: caller should be using the expansions instead.
MAX_TERMS = 10_000_000

_EPS_FLOOR = 1e-16
_MACHINE_EPS = sys.float_info.epsilon

#: Terms made and summed at a time; bounds the memory a long sum holds.
_BLOCK = 4096


class OracleResult(NamedTuple):
    """Direct-summation result with rigorous accuracy accounting.

    ``n_terms`` is the cutoff solved before summing: the smallest n
    whose ``tail_bound`` on the omitted tail is within the requested
    eps.  ``value`` is the math.fsum of the n terms, taken block by
    block with each block's running part carried into the next.
    ``rounding_bound`` estimates accumulated floating-point error as
    n_terms * machine_epsilon * sum |term|, a conservative budget for
    that summation.  A comparison against the oracle is only
    meaningful above their sum.
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
    |t_{n+1}| / (1 - exp(-re_a (2n+3))).  Where n^w overflows, this
    bound is far below any eps, so the cutoff stops before a term whose
    n^w would overflow: the summing loop never meets one.
    """
    expo = -re_a * (n + 1.0) ** 2
    mag = math.exp(expo) if expo > -745.0 else 0.0
    if mag == 0.0:
        return 0.0
    denom = -math.expm1(-re_a * (2.0 * n + 3.0))
    try:
        return mag / ((n + 1.0) ** w * denom)
    except OverflowError:
        # (n+1)^w is past binary64 (w above about 1024 / log2(n+1)):
        # divide in logs instead
        return math.exp(expo - w * math.log(n + 1.0)) / denom


def _stop_index(re_a: float, w: float, eps: float) -> int:
    """Smallest n >= 1 with _tail_bound(re_a, w, n) <= eps.

    The bound falls as n grows, so the test is monotone in n.  The
    guess solves exp(-re_a n^2) / n^w = eps with log n taken at
    sqrt(-log(eps) / re_a).  The search gallops out from it with
    doubling steps until it brackets the crossing, then bisects: a
    number of _tail_bound calls logarithmic in the distance between
    the guess and the answer.  Raises ConvergenceError when no
    n <= MAX_TERMS qualifies.
    """
    target = -math.log(eps)
    n2 = (target - 0.5 * w * math.log(target / re_a)) / re_a if target > 0.0 else 0.0
    guess = min(max(1, int(math.sqrt(max(0.0, n2)))), MAX_TERMS)
    step = 1
    # bracket: lo == 0 or lo misses eps, and hi meets it
    if _tail_bound(re_a, w, guess) <= eps:
        hi, lo = guess, guess - 1
        while lo > 0 and _tail_bound(re_a, w, lo) <= eps:
            step *= 2
            hi, lo = lo, max(lo - step, 0)
    else:
        lo = guess
        while True:
            if lo >= MAX_TERMS:
                raise ConvergenceError(
                    f"direct summation exceeded {MAX_TERMS} terms at eps={eps}; "
                    "convergence is too slow, use an expansion method"
                )
            hi = min(lo + step, MAX_TERMS)
            if _tail_bound(re_a, w, hi) <= eps:
                break
            lo, step = hi, 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _tail_bound(re_a, w, mid) <= eps:
            hi = mid
        else:
            lo = mid
    return hi


def _condense(parts: list[float]) -> list[float]:
    """Two floats that carry sum(parts) into the next block's fsum.

    The first is the sum rounded once; the second is what that rounding
    dropped, itself rounded once.  Their total is within about 2**-106
    of the exact sum, so the blockwise sum rounds like one math.fsum
    over every term.
    """
    total = math.fsum(parts)
    parts.append(-total)
    return [total, math.fsum(parts)]


def direct_sum(spec: SumSpec, eps: float = 1e-16) -> OracleResult:
    """Sum exp(-a n^2)/n^w until the rigorous tail bound drops to eps.

    eps below 1e-16 is rejected: binary64 cannot certify tighter.
    Raises ConvergenceError when the cutoff would exceed the iteration
    budget (Re(a) too small for direct summation at the requested
    tolerance); the cutoff is solved before any term is summed, so
    that error comes without the summing.

    For Im(a) == 0 each term is math.exp(-Re(a) k^2) / k^w in floats.
    That is the complex term cmath.exp(-a k^2) / k^w bit for bit: -a k^2
    has the real part -Re(a) k^2 and a signed zero as its imaginary
    part, cmath.exp(x + 0j) is exp(x) cos(0) = exp(x) with a signed
    zero beside it, and dividing by the real k^w divides each part.
    The imaginary parts, all zeros, sum to +0.0 after the leading +0.0,
    so the value's imaginary part is +0.0 either way.
    """
    eps = float(eps)
    if not eps >= _EPS_FLOOR:
        raise DomainError(f"direct_sum requires eps >= {_EPS_FLOOR}, got {eps}")
    a = spec.a
    w = spec.w
    re_a = a.real
    # a-priori reach check so hopeless requests fail fast
    n_est = math.sqrt(max(0.0, -math.log(eps) + 5.0) / re_a)
    if n_est > 1.05 * MAX_TERMS:
        raise ConvergenceError(
            f"direct summation needs ~{n_est:.2e} terms at eps={eps}; "
            "convergence is too slow, use an expansion method"
        )
    n = _stop_index(re_a, w, eps)
    # on the real axis a complex term's imaginary part is a signed zero
    neg_a, exp = (-re_a, math.exp) if a.imag == 0.0 else (-a, cmath.exp)
    # real and imaginary parts still to be summed; the leading +0.0
    # keeps an all-zero part from summing to -0.0
    re_parts = [0.0]
    im_parts = [0.0]
    abs_acc = 0.0
    for start in range(1, n + 1, _BLOCK):
        stop = min(start + _BLOCK, n + 1)
        for k in range(start, stop):
            term = exp(neg_a * (k * k)) / math.pow(k, w)
            re_parts.append(term.real)
            im_parts.append(term.imag)
            # plain left-to-right binary64, as the rounding budget assumes
            abs_acc += abs(term)
        if stop <= n:
            re_parts = _condense(re_parts)
            im_parts = _condense(im_parts)
    rounding = n * _MACHINE_EPS * abs_acc
    return OracleResult(
        value=complex(math.fsum(re_parts), math.fsum(im_parts)),
        n_terms=n,
        tail_bound=_tail_bound(re_a, w, n),
        rounding_bound=rounding,
    )
