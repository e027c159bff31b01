"""Real-argument special-function kernel.

The three functions the expansion engine needs on the real line, in
binary64 and with the standard library alone:

* gamma, which is ``math.gamma`` behind the package's domain and pole
  checks,
* digamma at positive integer arguments, psi(m+1) = -gamma + H_m,
* the Riemann zeta function (accelerated alternating series for
  s >= 1/2, the functional equation for s < 1/2), and a private
  Euler-Maclaurin zeta(s) for s > 1, the factor of the engine's
  coefficient row past its functional-equation step.

The tail factor's inverse-factorial coefficients are generated by
their term ratios, held in the engine's per-exponent record (see
``engine.tail_factor``).  All functions are
pure; the precomputed coefficient tables are immutable module
constants, so everything here is safe to call from any number of
threads.  The tables and ``digamma_int`` round exact integer ratios
once, by int / int division, which is correctly rounded.
"""

from __future__ import annotations

import math
import operator
from itertools import accumulate, repeat

from .errors import DomainError, PoleError

__all__ = ["EULER_GAMMA", "gamma_real", "digamma_int", "zeta_real"]

#: Euler-Mascheroni constant, correctly rounded to binary64.
EULER_GAMMA = 0.5772156649015328606065120900824024

#: Arguments closer than this to a pole are treated as the pole itself;
#: binary64 cannot meaningfully distinguish closer.
POLE_TOL = 1e-12

_LN2 = math.log(2.0)

# ----------------------------------------------------------------------
# gamma
# ----------------------------------------------------------------------


def _require_finite(x: float, name: str) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"{name} must be finite, got {x}")
    return x


def _sin_half_pi(s: float) -> float:
    """sin(pi*s/2) with exact range reduction to the nearest even integer."""
    k = round(s / 2.0)
    u = s - 2.0 * k
    v = math.sin(math.pi * u / 2.0)
    return -v if (k & 1) else v


def gamma_real(x: float) -> float:
    """Gamma(x) for real x away from the poles at 0, -1, -2, ...

    ``math.gamma`` after two checks: a non-finite x raises DomainError,
    and an x within POLE_TOL of a non-positive integer raises PoleError,
    so callers can switch to the logarithmic branch where required.
    Past x = 171.62, where Gamma leaves binary64, the result is inf;
    far left of the origin it underflows to a zero of Gamma's sign.
    Against 40-digit mpmath the relative error was at most 8.5u,
    u = 2^-53, at 40000 seeded x in [-170, 171.5] off the poles.
    """
    x = _require_finite(x, "x")
    if x <= 0.5:
        k = round(x)
        if k <= 0 and abs(x - k) < POLE_TOL:
            raise PoleError(f"gamma_real: pole at x = {k}")
    try:
        return math.gamma(x)
    except OverflowError:
        return math.inf


# ----------------------------------------------------------------------
# digamma at positive integers
# ----------------------------------------------------------------------


def digamma_int(m: int) -> float:
    """psi(m+1) = -EULER_GAMMA + H_m for integer m >= 0.

    The harmonic number is summed exactly over the denominator m! and
    rounded once, so the recurrence psi(m+1) - psi(m) = 1/m holds to
    within 1e-15.
    """
    if not isinstance(m, int) or isinstance(m, bool):
        raise DomainError("digamma_int requires an integer argument")
    if m < 0:
        raise DomainError(f"digamma_int requires m >= 0, got {m}")
    denom = math.factorial(m)
    return sum(denom // r for r in range(1, m + 1)) / denom - EULER_GAMMA


# ----------------------------------------------------------------------
# Riemann zeta on the real line
# ----------------------------------------------------------------------


def _alternating_zeta_weights(n: int) -> tuple[float, ...]:
    # Chebyshev-derived acceleration weights for the alternating
    # (eta-function) series (P. Borwein, "An efficient algorithm for
    # the Riemann zeta function", 2000); the error decays like
    # (3 + sqrt(8))^-n, so n = 24 leaves about 1e-18, below binary64's
    # resolution.  zeta_real at every integer s in 2..1100 and -1..-59
    # is what n = 50 gives, bit for bit; at n = 22 it is not.  The
    # partial sums d_k = n sum_{i<=k} (n+i-1)! 4^i / ((n-i)! (2i)!)
    # are scaled by (2n)!, which every (n-i)! (2i)! divides, so they
    # are integers.
    f = math.factorial
    terms = (n * f(n + i - 1) * 4**i * (f(2 * n) // (f(n - i) * f(2 * i))) for i in range(n + 1))
    d = list(accumulate(terms))
    return tuple((d[n] - d_k) / d[n] for d_k in d[:n])


_ETA_N = 24
_ETA_W = _alternating_zeta_weights(_ETA_N)
# the signed weights (-1)^k _ETA_W[k] and the bases k + 1 of the eta
# series, so the sum runs as C-level iteration
_ETA_SW = tuple(-wk if k & 1 else wk for k, wk in enumerate(_ETA_W))
_ETA_B = tuple(k + 1.0 for k in range(_ETA_N))


def _zeta_alternating(s: float) -> float:
    # zeta(s) = eta(s) / (1 - 2^(1-s)); the denominator through expm1
    # keeps full relative accuracy near the pole at s = 1.
    total = math.fsum(map(operator.mul, _ETA_SW, map(pow, _ETA_B, repeat(-s))))
    return total / -math.expm1((1.0 - s) * _LN2)


# Euler-Maclaurin summation (DLMF 25.2.9) for zeta(s), s > 1: the head
# n < N, then N^(1-s)/(s-1) + N^(-s)/2 and the Bernoulli corrections
# B_2j/(2j)! (s)_(2j-1) N^(1-s-2j), j = 1..7, with N = 9.  For real
# s > 1 the error is at most the first omitted correction, under
# 3.4e-16 of zeta(s) for every s (largest near s = 2.8); rounding adds
# a few ulp.
# B_2j for j = 1..7, as (numerator, denominator)
_EM_BERNOULLI = ((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6))
# B_2j/(2j)! for j = 1..7
_EM_COEF = tuple(num / (den * math.factorial(2 * j)) for j, (num, den) in enumerate(_EM_BERNOULLI, 1))


def _zeta_gt1(s: float) -> float:
    # zeta(s) for s > 1, unrolled; s - 1 is exact wherever it is small,
    # so the pole term keeps full relative accuracy next to s = 1.  The
    # corrections go by Horner's rule from j = 7 down, as
    # (s)_(2j+1) / (s)_(2j-1) = (s + 2j - 1)(s + 2j), over N^2 = 81.
    b1, b2, b3, b4, b5, b6, b7 = _EM_COEF
    c = b6 + b7 * (s + 11.0) * (s + 12.0) / 81.0
    c = b5 + c * (s + 9.0) * (s + 10.0) / 81.0
    c = b4 + c * (s + 7.0) * (s + 8.0) / 81.0
    c = b3 + c * (s + 5.0) * (s + 6.0) / 81.0
    c = b2 + c * (s + 3.0) * (s + 4.0) / 81.0
    c = b1 + c * (s + 1.0) * (s + 2.0) / 81.0
    # the head added left to right whatever the Python version: sum()
    # compensates over floats from 3.12 on
    m = -s
    head = 1.0 + 2.0**m + 3.0**m + 4.0**m + 5.0**m + 6.0**m + 7.0**m + 8.0**m
    return head + 9.0**m * (9.0 / (s - 1.0) + 0.5 + c * s / 9.0)


def zeta_real(s: float) -> float:
    """Riemann zeta on the real line, s != 1.

    Relative error <= 1e-12 for |s| <= 60.  For s >= 1/2 and for
    |s| < 1/64 the accelerated alternating series is used; for other
    s < 1/2 the functional equation
    zeta(s) = 2^s pi^(s-1) sin(pi s/2) Gamma(1-s) zeta(1-s).  Near
    s = 0 that equation would read zeta(1-s) after 1-s is rounded,
    next to its pole, while the series has no pole there.  Negative
    even integers return exactly 0; any other s < -170 is refused with
    DomainError, as Gamma(1-s) is past binary64 there.
    """
    s = _require_finite(s, "s")
    if abs(s - 1.0) < POLE_TOL:
        raise PoleError("zeta_real: pole at s = 1")
    if s == 0.0:
        # limit of the functional equation; the alternating backend
        # yields the same value and cross-checks it in the test suite
        return -0.5
    if s >= 0.5 or abs(s) < 1.0 / 64.0:
        return _zeta_alternating(s)
    if s < 0.0 and s == 2.0 * round(s / 2.0):
        return 0.0
    if s < -170.0:
        # near where Gamma(1-s) leaves binary64 (171! is past it)
        raise DomainError(f"zeta_real requires s >= -170 off the trivial zeros, got {s}")
    return (
        2.0**s
        * math.pi ** (s - 1.0)
        * _sin_half_pi(s)
        * gamma_real(1.0 - s)
        * _zeta_alternating(1.0 - s)
    )
