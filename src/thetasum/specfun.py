"""Real-argument special-function kernel.

Self-contained binary64 implementations of the three functions the
expansion engine needs on the real line:

* gamma (fixed-coefficient Lanczos approximation plus the reflection
  formula; past x = 170 through a private log-gamma),
* digamma at positive integer arguments, psi(m+1) = -gamma + H_m,
* the Riemann zeta function (accelerated alternating series for
  s >= 1/2, the functional equation for s < 1/2), and a private
  Euler-Maclaurin zeta(s) for s > 1, the factor of the engine's
  coefficient row past its functional-equation step.

The tail factor's inverse-factorial coefficients are generated by
their term ratio inside ``engine.tail_factor``.  All functions are
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
_LN_PI = math.log(math.pi)
_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)

# ----------------------------------------------------------------------
# gamma / log-gamma
# ----------------------------------------------------------------------

# Lanczos rational approximation, g = 607/128 with 15 coefficients
# (Godfrey's set).  Gives ~1e-15 relative accuracy uniformly on the
# right half-line, verified here against the recurrence invariant.
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)


def _require_finite(x: float, name: str) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"{name} must be finite, got {x}")
    return x


def _sin_pi(x: float) -> float:
    """sin(pi*x) with exact range reduction to the nearest integer.

    The reduction u = x - round(x) is exact in binary64, so the result
    keeps full relative accuracy even when x is large or sin is small.
    """
    k = round(x)
    u = x - k
    s = math.sin(math.pi * u)
    return -s if (k & 1) else s


def _sin_half_pi(s: float) -> float:
    """sin(pi*s/2) with exact range reduction to the nearest even integer."""
    k = round(s / 2.0)
    u = s - 2.0 * k
    v = math.sin(math.pi * u / 2.0)
    return -v if (k & 1) else v


def _lanczos_series(z: float) -> float:
    acc = _LANCZOS_C[0]
    for i in range(1, len(_LANCZOS_C)):
        acc += _LANCZOS_C[i] / (z + i)
    return acc


def gamma_real(x: float) -> float:
    """Gamma(x) for real x away from the poles at 0, -1, -2, ...

    Relative error <= 1e-13 for |x| <= 50.  Raises PoleError within
    1e-12 of a non-positive integer so callers can switch to the
    logarithmic branch where required.
    """
    x = _require_finite(x, "x")
    if x <= 0.5:
        k = round(x)
        if k <= 0 and abs(x - k) < POLE_TOL:
            raise PoleError(f"gamma_real: pole at x = {k}")
    if x < 0.5:
        # reflection: Gamma(x) Gamma(1-x) = pi / sin(pi x)
        return math.pi / (_sin_pi(x) * gamma_real(1.0 - x))
    if x > 170.0:
        # Gamma overflows just past 171.6; go through logs.
        lg = _log_gamma(x)
        return math.exp(lg) if lg < 709.0 else math.inf
    z = x - 1.0
    t = z + _LANCZOS_G + 0.5
    # split the power so intermediates stay in range up to the overflow
    # threshold of Gamma itself
    half_pow = math.pow(t, (z + 0.5) / 2.0)
    return _SQRT_TWO_PI * half_pow * math.exp(-t) * half_pow * _lanczos_series(z)


def _log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0, relative error <= 1e-13 up to x = 1e6."""
    x = _require_finite(x, "x")
    if x <= 0.0:
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    if x < 0.5:
        # 0 < x < 1/2, so sin(pi x) > 0 and Gamma(x) > 0
        return _LN_PI - math.log(_sin_pi(x)) - _log_gamma(1.0 - x)
    z = x - 1.0
    t = z + _LANCZOS_G + 0.5
    return (
        0.5 * math.log(2.0 * math.pi)
        + (z + 0.5) * math.log(t)
        - t
        + math.log(_lanczos_series(z))
    )


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
    # (eta-function) series; error decays like (3 + sqrt(8))^-n, so
    # n = 50 leaves a margin of ~1e-38 over binary64.  The partial sums
    # d_k = n sum_{i<=k} (n+i-1)! 4^i / ((n-i)! (2i)!) are scaled by
    # (2n)!, which every (n-i)! (2i)! divides, so they are integers.
    f = math.factorial
    terms = (n * f(n + i - 1) * 4**i * (f(2 * n) // (f(n - i) * f(2 * i))) for i in range(n + 1))
    d = list(accumulate(terms))
    return tuple((d[n] - d_k) / d[n] for d_k in d[:n])


_ETA_N = 50
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
_EM_N = 9.0
_EM_HEAD = tuple(float(n) for n in range(1, int(_EM_N)))
# B_2j for j = 1..7, as (numerator, denominator)
_EM_BERNOULLI = ((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6))
# (B_2j/(2j)!, 2j - 1, 2j) from j = 7 down, for Horner's rule
_EM_HORNER = tuple(
    (num / (den * math.factorial(2 * j)), 2.0 * j - 1.0, 2.0 * j)
    for j, (num, den) in reversed(tuple(enumerate(_EM_BERNOULLI, 1)))
)


def _zeta_gt1(s: float) -> float:
    # zeta(s) for s > 1; s - 1 is exact wherever it is small, so the
    # pole term keeps full relative accuracy next to s = 1
    corr = 0.0
    for b, lo, hi in _EM_HORNER:
        # (s)_(2j+1) / (s)_(2j-1) = (s + 2j - 1)(s + 2j)
        corr = b + corr * (s + lo) * (s + hi) / (_EM_N * _EM_N)
    p = _EM_N**-s
    return sum(map(pow, _EM_HEAD, repeat(-s))) + p * (_EM_N / (s - 1.0) + 0.5 + corr * s / _EM_N)


def zeta_real(s: float) -> float:
    """Riemann zeta on the real line, s != 1.

    Relative error <= 1e-12 for |s| <= 60.  For s >= 1/2 and for
    |s| < 1/64 the accelerated alternating series is used; for other
    s < 1/2 the functional equation
    zeta(s) = 2^s pi^(s-1) sin(pi s/2) Gamma(1-s) zeta(1-s).  Near
    s = 0 that equation would read zeta(1-s) after 1-s is rounded,
    next to its pole, while the series has no pole there.  Negative
    even integers return exactly 0.
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
        # Gamma(1-s) alone overflows; assemble the magnitude in logs.
        # Outside the accuracy contract (|s| <= 60) but keeps the
        # function total for diagnostic sweeps.
        sin_term = _sin_half_pi(s)
        if sin_term == 0.0:
            return 0.0
        mag = (
            s * _LN2
            + (s - 1.0) * _LN_PI
            + _log_gamma(1.0 - s)
            + math.log(abs(sin_term))
            + math.log(_zeta_alternating(1.0 - s))
        )
        sign = 1.0 if sin_term > 0.0 else -1.0
        return sign * math.exp(mag) if mag < 709.0 else sign * math.inf
    return (
        2.0**s
        * math.pi ** (s - 1.0)
        * _sin_half_pi(s)
        * gamma_real(1.0 - s)
        * _zeta_alternating(1.0 - s)
    )
