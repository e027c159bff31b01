"""Expansion engine for sum_{n>=1} exp(-a n^2) / n^w as a -> 0.

Routes besides the direct oracle, all valid in the sector Re(a) > 0:

* eval_generic -- the small-a expansion for w > 0 not an even integer:

      S = singular_term + sum'_k (-1)^k zeta(w - 2k) a^k / k!

  where the primed sum omits k = m when w = 2m+1 (that contribution
  moves into the singular term, which then carries log a).

* eval_even -- for w = 2m the zeta factors terminate the k-sum at
  k = m and the expansion closes into a transformation of
  Poisson-Jacobi type: an algebraic part plus the dual sum in
  exp(-pi^2 n^2 / a), each dual term decorated by an asymptotic
  series tail_factor(a; m, n) with inverse-factorial coefficients.
  Its m = 0 case, every tail factor exactly 1, is the classical
  Poisson-Jacobi identity for w = 0, exact, not asymptotic, and
  evaluate(..., MethodChoice.CLASSICAL_PJ) runs it in the same loop.

``evaluate`` is the one way into a route; the CLI and ``verify`` reach
the routes only through it.  ``eval_generic``, ``eval_even``,
``singular_term`` and ``tail_factor`` stay module globals as the layer
boundaries that perfbench's tracer rebinds to time each layer.

Which route fits a w > 0 is decided in one place,
``classify_exponent``: w is even, odd, near odd, or none of these.  A
route handed an exponent it does not take raises DomainError.  w = 0 is
tested apart: ``evaluate``'s pj branch takes |w| <= INTEGER_TOL, while
the CLI's ``auto`` picks pj at w == 0 only and generic for a w in
(0, INTEGER_TOL].

The k-sum and the tail-factor series diverge.  Each runs as one plain
loop over local variables (no generator, no per-term function call)
and stops by the one test that ``_truncate`` decodes from the policy;
the tail factor's cap bounds the slice of its ratio row that the loop
runs over, so its per-term work is a product, an abs, the least-term
test and an append.
Every series collects its terms in a list and takes its value from one
math.fsum call per part: ``_fsum`` for float terms, ``_complex_fsum``
(``_fsum`` over the real and the imaginary parts apart) for complex
ones.  So each value is the correctly rounded sum of its terms, as the
oracle's is; a sum that is not finite raises PrecisionError.  A plain
binary64 running sum, added left to right, serves the stop tests only.
For a real a (Im(a) == 0) the generic k-sum, the tail-factor series
and the even transformation's parts run in floats (``_k_sum``,
``tail_factor``, ``_even_transform``; the oracle does the same).
With every imaginary part a signed zero, each complex
operation they replace rounds its real part as the float operation
does, so the terms, the stop decisions, the value, the estimate and
the refusals are those of complex arithmetic bit for bit, and the
value's imaginary part is +0.0; where the complex arithmetic turns an
overflowed product into NaN, so does the float path.
A route logs term magnitudes only into a TermLog that its caller passes
(the ``log`` keyword of evaluate, eval_generic, eval_even and
tail_factor); without one it does no log work and allocates no log:
its ``term_log`` is the shared read-only ``model.EMPTY_LOG``.  With
one, the magnitudes of each series reach the log in one
``TermLog.extend``: the k-sum's collect in a local list, the tail
factor's are the abs of its kept terms and of the first omitted one,
taken after its loop; only the even route's dual terms are logged one
by one, between the tail-factor series they decorate.  No value, estimate, count or
refusal depends on whether a log is passed.
The even route computes a dual term's tail factor only when the term
can matter: under the default policy with the dual count chosen by the
route, a term whose rigorous bound is below 1e-18 of the value adds 0
and joins err_estimate by that bound (``eval_even``).

Everything is pure and thread safe.  What depends on w alone is made
once per exponent, into one ``_Exponent`` record, memoised in one
fixed-size cache of _EXPONENT_MEMO exponents (``_exponent``,
functools.lru_cache, thread safe): w's class and m, classified once;
the head constant, the singular term's Gamma or digamma constant or
the even route's Gamma(1/2 - m); the k-sum's row (-1)^k zeta(w - 2k),
which grows on demand, in a local copy published once per call
(zeta_real while w - 2k >= 0, the functional equation as a recurrence
in k past that); and, for w = 2m, the tail factor's row of term ratios
(m + j)(m + 1/2 + j)/(j + 1), which grows by doubling only to about
the length a call needs and is published the same way.
A value does not depend on what the cache holds.  Each series stops at
a fixed cap (_K_CAP, _J_CAP, _N_CAP); a caller caps a run further with
a Fixed policy, or the dual sum with n_max.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
import sys
import threading
from typing import Iterable, Optional

from .errors import DomainError, PrecisionError
from .model import (
    EMPTY_LOG,
    OPTIMAL,
    Evaluation,
    Fixed,
    MethodChoice,
    OptimalFirstMin,
    SumSpec,
    TermLog,
    TruncationPolicy,
)
from .oracle import direct_sum
from .specfun import EULER_GAMMA, _sin_half_pi, _zeta_gt1, digamma_int, gamma_real, zeta_real

__all__ = [
    "singular_term",
    "eval_generic",
    "eval_even",
    "tail_factor",
    "evaluate",
]

_PI2 = math.pi * math.pi

#: Absolute tolerance for recognizing integer exponents; separates
#: intentional integer input from nearby reals at binary64.
INTEGER_TOL = 1e-9

#: Non-integer exponents closer than this to an odd integer trip the
#: near-odd cancellation warning.
NEAR_ODD_WINDOW = 0.05

# Terms below this fraction of the accumulated value cannot change the
# result at binary64; the k-sum least-term scan stops there instead of
# chasing a minimum that may lie past the range of zeta_real.
_REL_FLOOR = 1e-18

# Series caps: the generic k-sum, the tail-factor series of each dual
# term, and the dual (theta-type) sum.
_K_CAP = 400
_J_CAP = 2000
_N_CAP = 50

_EPS = sys.float_info.epsilon

# Past 2^_MAX_EXP a float overflows.
_MAX_EXP = sys.float_info.max_exp

# c of the generic err_estimate's rounding term c eps sum|kept terms|
# (derived in eval_generic), and c eps.
_ROUNDING_C = 8.0
_ROUNDING = _ROUNDING_C * _EPS

# The largest m whose m! is finite in binary64.
_FACTORIAL_MAX = 170

# Exponents held by the per-exponent memo, ``_exponent``.
_EXPONENT_MEMO = 256

# The largest m that tail_factor takes: past it 2m is not exact in
# binary64, so the record of w = 2m may hold another m.
_M_EXACT = 1 << 53

# The routes as module globals: a read of a member off MethodChoice
# costs a class attribute lookup on every call.
_DIRECT = MethodChoice.DIRECT
_GENERIC = MethodChoice.GENERIC
_EVEN_TRANSFORM = MethodChoice.EVEN_TRANSFORM
_CLASSICAL_PJ = MethodChoice.CLASSICAL_PJ


# ----------------------------------------------------------------------
# exponent classification
# ----------------------------------------------------------------------


#: The classes ``classify_exponent`` returns besides None.
EVEN, ODD, NEAR_ODD = "even", "odd", "near-odd"


def classify_exponent(w: float) -> tuple[Optional[str], int]:
    """(kind, m) for an exponent w, with n = round(w) and d = |w - n|:
    (EVEN, n/2) when n >= 2 is even and d <= INTEGER_TOL, (ODD, (n-1)/2)
    when n is odd and d <= INTEGER_TOL, (NEAR_ODD, (n-1)/2) when n is
    odd and INTEGER_TOL < d < NEAR_ODD_WINDOW, else (None, 0)."""
    n = round(w)
    d = abs(w - n)
    if n & 1:
        if d <= INTEGER_TOL:
            return ODD, n >> 1
        if d < NEAR_ODD_WINDOW:
            return NEAR_ODD, n >> 1
    elif n >= 2 and d <= INTEGER_TOL:
        return EVEN, n >> 1
    return None, 0


def _require_positive_int(value: int, name: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise DomainError(f"{name} must be an integer >= 1, got {value!r}")
    return value


# ----------------------------------------------------------------------
# per-exponent record, memoised
# ----------------------------------------------------------------------


class _Exponent:
    """What the routes need of one exponent w alone.

    ``kind`` and ``m`` come from ``classify_exponent``; ``skip`` is the
    k that the k-sum leaves out, m for an odd w and None otherwise.
    ``const`` is the head constant: psi(m+1)/2 for an odd w (past
    m = 170 the record is refused with PrecisionError, before
    digamma_int's exact O(m^2) sum runs); Gamma(1/2 - m)/2 for w = 2m,
    w = 0 included, by the downward recurrence from Gamma(1/2) =
    sqrt(pi), whose factors 1/2 - r are exact in binary64; and
    Gamma((1-w)/2)/2 otherwise.  From 2m = 1024 on, where eval_even
    refuses before reading the record, an even ``const`` is NaN and
    costs O(1), not a loop of m steps.  On a miss ``const`` is made
    before any row entry, through the module-global specfun names, so
    a caller that rebinds a name sees every call that runs.

    The k-sum coefficients row[k] = (-1)^k zeta(w - 2k) grow on demand.
    While w - 2k >= 0 an entry is zeta_real(w - 2k), so the even
    route's coefficients are those of zeta_real bit for bit.  From the
    first k0 with w - 2k0 < 0 on, the functional equation (DLMF 25.4.1)
    with sin(pi (w - 2k)/2) = (-1)^k sin(pi w/2) gives

        row[k] = g_k zeta(2k + 1 - w),
        g_k0 = sin(pi w/2) (2 pi)^(w - 2 k0) / pi * Gamma(2 k0 + 1 - w),
        g_(k+1) = g_k (2k + 1 - w)(2k + 2 - w) / (4 pi^2),

    with zeta(2k + 1 - w), argument > 1, from ``_zeta_gt1``.  The sine
    is taken on w itself, so no rounded w - 2k sits next to a trivial
    zero (at w = 2m it is exactly 0 past k = m), and 2^w pi^(w-1) is
    never formed, so a large w does not overflow.  The entry at
    ``skip``, a pole, is 0.

    ``tip`` holds the published entries, an immutable tuple, with the
    g of the last, replaced whole, so a reader needs no lock.  A grower
    copies the entries, extends its copy by ``grow`` without the
    lock and hands the copy to ``publish``, which replaces ``tip``
    under the lock when the copy is longer.  Every grower computes the
    same values in the same order, so whichever copy is published, an
    entry never changes once it is there.

    ``ratios`` is the tail factor's row for w = 2m: the ratios
    r_j = (m + j)(m + 1/2 + j)/(j + 1.0) = c_(j+1)/c_j of its
    coefficients, which depend on m alone.  ``ratios_upto`` grows it to
    the length a call asks for and no further, and publishes it as
    ``tip`` is published: an immutable tuple, extended without the
    lock and replaced whole under it when the extension is longer.
    """

    __slots__ = ("w", "kind", "m", "skip", "const", "tip", "ratios", "_k0", "_lock")

    def __init__(self, w: float):
        kind, m = classify_exponent(w)
        if kind == ODD:
            if m > _FACTORIAL_MAX:
                raise PrecisionError(f"the singular term at w = {w} needs {m}!, past binary64")
            const = 0.5 * digamma_int(m)
        elif kind == EVEN or w == 0.0:
            # w = 0 is pj's exponent, which classify_exponent leaves unclassed
            if 2 * m < _MAX_EXP:
                denom = 1.0
                for r in range(1, m + 1):
                    denom *= 0.5 - r
                const = 0.5 * (math.sqrt(math.pi) / denom)
            else:
                const = math.nan
        else:
            const = 0.5 * gamma_real(0.5 - 0.5 * w)
        self.w = w
        self.kind = kind
        self.m = m
        self.skip = m if kind == ODD else None
        self.const = const
        # g is 0.0 until the row is past k0
        self.tip: tuple[tuple[float, ...], float] = ((), 0.0)
        self.ratios: tuple[float, ...] = ()
        self._k0 = int(w // 2.0) + 1
        self._lock = threading.Lock()

    def grow(self, row: list[float], g: float, k: int) -> float:
        """Append entries to ``row``, a copy of the published entries
        grown by this method alone, until it holds 0..k, and return the
        g of its last entry, given g of the last entry before."""
        w = self.w
        for j in range(len(row), k + 1):
            if j == self.skip:
                row.append(0.0)
            elif j < self._k0:
                z = zeta_real(w - 2.0 * j)
                row.append(-z if j & 1 else z)
            else:
                if j == self._k0:
                    g = _sin_half_pi(w) * (2.0 * math.pi) ** (w - 2.0 * j) / math.pi
                    g *= gamma_real(2.0 * j + 1.0 - w)
                else:
                    g *= (2.0 * j - 1.0 - w) * (2.0 * j - w) / (4.0 * _PI2)
                row.append(g * _zeta_gt1(2.0 * j + 1.0 - w))
        return g

    def publish(self, row: list[float], g: float) -> tuple[float, ...]:
        """Publish ``row`` and the g of its last entry if it is longer
        than the published entries; return the published entries."""
        with self._lock:
            if len(row) > len(self.tip[0]):
                self.tip = (tuple(row), g)
            return self.tip[0]

    def upto(self, k: int) -> tuple[float, ...]:
        """The row, holding at least the entries 0..k."""
        entries, g = self.tip
        if k < len(entries):
            return entries
        row = list(entries)
        return self.publish(row, self.grow(row, g, k))

    def ratios_upto(self, count: int) -> tuple[float, ...]:
        """The tail-factor ratios, holding at least r_0..r_(count-1)."""
        ratios = self.ratios
        if count <= len(ratios):
            return ratios
        m = self.m
        mh = m + 0.5
        grown = ratios + tuple([(m + j) * (mh + j) / (j + 1.0) for j in range(len(ratios), count)])
        with self._lock:
            if len(grown) > len(self.ratios):
                self.ratios = grown
            return self.ratios


@functools.lru_cache(maxsize=_EXPONENT_MEMO)
def _exponent(w: float) -> _Exponent:
    return _Exponent(w)


# ----------------------------------------------------------------------
# least-term truncation of a divergent series
# ----------------------------------------------------------------------


def _truncate(
    policy: TruncationPolicy, cap: int, rel_floor: float = 0.0
) -> tuple[int, bool, float]:
    """Decode ``policy`` for a series of at most ``cap`` terms into
    (cap, least_rule, rel_floor), the stop test every series loop
    applies.

    Each loop holds a term back until the next one is computed.  If
    ``least_rule`` is set and the next is no smaller, the held term is
    the least term (first local minimum, ties toward the smaller index):
    the k-sum leaves it out and the tail factor keeps it.  The held term
    is also left out below rel_floor * |running sum|, or when ``cap``
    terms are in.  Fixed has no least-term or floor stop; its count
    lowers ``cap``.  The running sum is plain binary64 and serves the
    floor test only; the kept terms are summed by ``_fsum`` or
    ``_complex_fsum``.
    """
    if isinstance(policy, Fixed):
        return min(policy.count, cap), False, 0.0
    return cap, True, rel_floor


def _fsum(terms: Iterable[float]) -> float:
    """The correctly rounded sum of the floats ``terms``, by math.fsum.
    A sum that is not finite raises PrecisionError: one that overflows
    binary64 or holds infinities of both signs, and an infinite or NaN
    term, which math.fsum passes through."""
    try:
        total = math.fsum(terms)
        if math.isfinite(total):
            return total
    except (OverflowError, ValueError):
        pass
    raise PrecisionError("a series sum is not finite in binary64")


_REAL = operator.attrgetter("real")
_IMAG = operator.attrgetter("imag")


def _complex_fsum(terms: list[complex]) -> complex:
    """The correctly rounded sum of ``terms``: ``_fsum`` over the real
    and the imaginary parts apart."""
    return complex(_fsum(map(_REAL, terms)), _fsum(map(_IMAG, terms)))


# ----------------------------------------------------------------------
# generic expansion, w not an even integer
# ----------------------------------------------------------------------


def singular_term(spec: SumSpec) -> complex:
    """The non-power-series part of the generic small-a expansion.

    For w = 2m+1 (within tolerance) the leading pole is double and the
    term carries the logarithm:

        ((-a)^m / m!) (EULER_GAMMA - (1/2) log a + (1/2) psi(m+1));

    otherwise it is the simple-pole contribution

        (1/2) Gamma((1-w)/2) a^((w-1)/2).

    Principal branch for log and powers.
    """
    a, w = spec
    if w <= 0.0:
        raise DomainError(f"singular_term requires w > 0, got {w}")
    e = _exponent(w)
    if e.kind == ODD:
        return ((-a) ** e.m / math.factorial(e.m)) * (EULER_GAMMA - 0.5 * cmath.log(a) + e.const)
    if e.kind == EVEN:
        raise DomainError(f"w = {w} is an even integer; use the even-exponent transformation")
    return e.const * a ** ((w - 1.0) / 2.0)


def _k_sum(
    a: complex,
    e: _Exponent,
    policy: TruncationPolicy,
    head: complex,
    log: Optional[TermLog],
) -> tuple[complex, int, float, float]:
    # Sums head + sum'_k (-1)^k zeta(w - 2k) a^k / k!, k = e.skip left
    # out, and, with a ``log``, logs every computed k-term in one write.
    # Returns (value, terms added, magnitude of the first omitted term,
    # sum|kept|), the head not counted among the terms added; when the
    # least-term rule stops the sum, the least term is that first
    # omitted term.  sum|kept| is added left to right whatever the
    # Python version (sum() compensates over floats from 3.12 on).
    # Coefficients past the published row are grown in a local copy and
    # published once, when the sum stops.
    #
    # On the real axis the loop runs in floats, as tail_factor's does,
    # and gives the complex loop's terms, stop decisions and value bit
    # for bit, with +0.0 as the value's imaginary part.  That takes a
    # head whose imaginary part is a zero too, which it is for a real a
    # except where (-a)^m is taken in polar form (m > 100); the complex
    # loop runs there.
    cap, least_rule, rel_floor = _truncate(policy, _K_CAP, _REL_FLOOR)
    if a.imag == 0.0 and head.imag == 0.0:
        a = a.real
        head = head.real
        apow: complex = 1.0  # a^k / k!
        total = _fsum
    else:
        apow = 1.0 + 0j
        total = _complex_fsum
    skip = e.skip
    row, g = e.tip
    n_row = len(row)
    grown: Optional[list[float]] = None
    kept = [head]
    running = head
    abs_kept = abs(head)
    mags: Optional[list[float]] = None if log is None else []
    held: Optional[complex] = None
    held_mag = 0.0
    added = 0
    k = 0
    while True:
        if k != skip:
            if k >= n_row:
                if grown is None:
                    row = grown = list(row)
                g = e.grow(grown, g, k)
                n_row = k + 1
            term = row[k] * apow
            mag = abs(term)
            if mags is not None:
                mags.append(mag)
            if held is not None:
                if least_rule and mag >= held_mag:
                    mag = held_mag
                    break
                kept.append(held)
                running += held
                abs_kept += held_mag
                added += 1
            held, held_mag = term, mag
            if added == cap or (rel_floor and mag < rel_floor * abs(running)):
                break
        k += 1
        apow *= a / k
    if grown is not None:
        e.publish(grown, g)
    if mags is not None:
        if skip is None or skip > k:
            log.extend("k", range(k + 1), mags)
        else:
            log.extend("k", [*range(skip), *range(skip + 1, k + 1)], mags)
    return complex(total(kept)), added, mag, abs_kept


def eval_generic(
    spec: SumSpec, policy: TruncationPolicy = OPTIMAL, *, log: Optional[TermLog] = None
) -> Evaluation:
    """Generic small-a expansion for w > 0 not an even integer.

    singular_term + sum'_k (-1)^k zeta(w - 2k) a^k / k!, the primed
    sum omitting k = m when w = 2m+1.  Truncation under
    OptimalFirstMin stops just *before* the least term, so the
    truncation part of err_estimate is the least term itself; under
    Fixed it is the first omitted term.  The scan also stops once terms
    drop below 1e-18 of the accumulated value: past that point further
    terms cannot change the result at binary64.
    Raises PrecisionError when a term, the sum or err_estimate
    overflows binary64 (large w or |a|).

    err_estimate adds the rounding term c eps sum|kept terms|, the
    singular term included, with eps = 2^-52 and c = 8.  With
    u = eps/2, each kept term reaches math.fsum with a relative error
    of at most its coefficient's, 8u in the budget, plus: the power
    a^((w-1)/2), through hypot, pow and one phase product, 3u; each
    factor a/k of a^k/k! and the product with the coefficient, 3u.
    math.fsum rounds the sum once, u.  For the leading terms, which
    carry the sum, that is 14u + u = 7.5 eps per unit of sum|t|, hence
    c = 8.  A later term carries 3u more per index, but it has shrunk
    by more than that: the term ratio is about k |a| / pi^2 where the
    expansion holds.  Measured against 40-digit mpmath, the singular
    term's coefficient gamma_real((1 - w)/2), math.gamma at the rounded
    argument, reached 8.3u over 20000 seeded w in (0, 7] at least 0.05
    from the odd integers; with the power's 3u and no factor a/k that
    term stays within 7.5 eps.  The Lanczos kernel it replaced reached
    15.3u there.  The row's coefficients exceed the budget: against
    40-digit mpmath over 5298 seeded w in (0.05, 8) at least 0.06 from
    the integers, its zeta_real entries reached 9.5u (at w - 2k = 0.07,
    where the functional equation reads zeta at the rounded 1 - s) and
    its functional-equation entries 12.9u for k0 <= k <= k0 + 2 (17.9u
    up to k0 + 6).  A k-term at k = k0 = 1 can then carry 12.9u + 3u
    + u, above the 16u that c = 8 allows per unit of sum|t|: for the
    k-terms c = 8 is kept, not derived.

    With a ``log``, every computed k-term, the first omitted one
    included, is logged under the name ``k`` and ``term_log`` is that
    log; without one ``term_log`` is the shared read-only EMPTY_LOG.
    """
    a, w = spec
    if w <= 0.0:
        raise DomainError(f"eval_generic requires w > 0, got {w}")
    e = _exponent(w)
    try:
        value, included, first_omitted, abs_kept = _k_sum(a, e, policy, singular_term(spec), log)
        err_estimate = first_omitted + _ROUNDING * abs_kept
        if not math.isfinite(err_estimate):
            # the first omitted term overflows under Fixed at a huge a
            raise OverflowError
    except OverflowError:
        raise PrecisionError(
            f"the generic expansion at a = {a}, w = {w} overflows binary64"
        ) from None
    # value, method, terms_used, err_estimate, term_log, near_odd_warning
    return Evaluation(
        value,
        _GENERIC,
        {"k": included},
        err_estimate,
        EMPTY_LOG if log is None else log,
        e.kind == NEAR_ODD,
    )


# ----------------------------------------------------------------------
# even-exponent transformation, w = 2m
# ----------------------------------------------------------------------


def tail_factor(
    a: complex,
    m: int,
    n: int,
    policy: TruncationPolicy = OPTIMAL,
    *,
    log: Optional[TermLog] = None,
) -> tuple[complex, int, float]:
    """Asymptotic factor decorating the n-th dual term for w = 2m.

    Partial sum of sum_j c_j (-a / (pi^2 n^2))^j with the
    inverse-factorial coefficients c_j = (m)_j (m+1/2)_j / j!,
    generated by the term ratio r_j = c_(j+1)/c_j, so no large
    intermediates appear.  The ratios depend on m alone and are read
    from the row of the exponent record of w = 2m: one loop runs over
    that row under every policy, with or without a log.  The row grows
    only to about the length a call needs, clamped to the cap _J_CAP:
    when the loop reaches its end before the stop, the row grows to
    the Fixed count, or under OptimalFirstMin doubles from 16 entries
    up to the bound j = 1/|x| + 2 = pi^2 n^2/|a| + 2 with
    x = -a/(pi^2 n^2), by which the least term comes (2 where x
    underflows to 0, as every term from j = 1 on is then 0), and
    doubles on past that bound.  Doubling stops a cold row within twice
    the length of a series whose terms underflow long before the bound.
    Unlike the generic k-sum, the series *includes* its least term:
    under OptimalFirstMin the last included index is the least-term
    index (the magnitudes are unimodal in j, so the first local
    minimum is global).  The leading term 1 is kept under every policy.

    Returns (value, j_used, first_omitted) where j_used counts the
    included terms (least-term index + 1 under OptimalFirstMin) and
    first_omitted is the magnitude of the first omitted term.  With a
    ``log``, every computed term, the first omitted one included, is
    logged under the name ``j[n=<n>]``.

    The loop makes t_1..t_(cap-1) at most: it runs over the row's slice
    r_(j-1)..r_(cap-2), j = len(kept), so it tests no index against the
    cap.  Where it runs through to the cap, t_cap is made after it from
    r_(cap-1), as the first omitted term.  j_used is the length of the
    list of kept terms.  A log's magnitudes are taken after the loop:
    abs of each kept term, then the first omitted term's, the same
    floats the least-term test compared.

    For Im(a) == 0 the loop runs on floats, x = -Re(a) / (pi^2 n^2)
    and t_0 = 1.0, and gives the complex loop's results bit for bit:
    there every imaginary part is a signed zero, so -a / (pi^2 n^2) is
    Smith's division with ratio 0, a product's real part is the product
    of the real parts less a zero, and abs is the real part's modulus.
    The value's imaginary part is +0.0.  A non-finite a is refused:
    the complex loop turns it into NaNs, the float loop would not; so
    is an m past 2^53, whose 2m is not exact in binary64.
    """
    a = complex(a)
    if not (a.real > 0.0 and cmath.isfinite(a)):
        raise DomainError(f"tail_factor requires a finite a with Re(a) > 0, got a = {a}")
    if m.__class__ is not int or n.__class__ is not int or not 0 < m <= _M_EXACT or n < 1:
        # the checks in full, also passing an int subclass
        _require_positive_int(m, "m")
        _require_positive_int(n, "n")
        if m > _M_EXACT:
            raise DomainError(f"tail_factor requires m <= 2^53, exact in binary64, got m = {m}")
    cap, least_rule, _ = _truncate(policy, _J_CAP)
    nn2 = _PI2 * n * n
    if a.imag == 0.0:
        # the real axis, where the complex loop's imaginary parts are zeros
        x: complex = -a.real / nn2
        t: complex = 1.0
        total = _fsum
    else:
        x = -a / nn2
        t = 1.0 + 0j
        total = _complex_fsum
    e = _exponent(2.0 * m)
    ratios = e.ratios
    kept = [t]
    mag = 1.0
    # kept holds t_0..t_(j-1), j = len(kept), and t_j = t_(j-1) r_(j-1) x
    # is kept unless the least-term rule stops the series there, at its
    # least term t_(j-1); the slice ends at r_(cap-2), so the loop makes
    # no t_cap, which is left out at the cap and made after the loop
    while True:
        for ratio in ratios[len(kept) - 1 : cap - 1]:
            t = t * ratio * x
            held_mag, mag = mag, abs(t)
            if least_rule and mag >= held_mag:
                break
            kept.append(t)
        else:
            made = len(kept) - 1  # t_1..t_made, all kept
            if made < len(ratios):
                # made == cap - 1: t_cap, from r_(cap-1), is the first
                # omitted term
                t = t * ratios[made] * x
                mag = abs(t)
                break
            # the row ends before the stop: grow it and go on.  Under the
            # least-term rule it doubles from 16 entries up to the stop's
            # bound, as the terms may underflow long before it, and
            # doubles on past the bound; under Fixed it grows to the
            # count.  The size is clamped to the cap before int(), as
            # 1/|x| is inf at a tiny nonzero x
            if least_rule:
                bound = 1.0 / abs(x) + 2.0 if x else 2.0
                size = min(max(2 * made, 16), bound) if made + 1 <= bound else 2 * made
            else:
                size = cap
            ratios = e.ratios_upto(int(min(size, cap)))
            continue
        break
    j = len(kept)
    if log is not None:
        # the magnitudes of the kept terms and of the first omitted one,
        # each the abs that the stop test compared
        log.extend(f"j[n={n}]", range(j + 1), [*map(abs, kept), mag])
    return complex(total(kept)), j, mag


def eval_even(
    spec: SumSpec,
    m: int,
    policy: TruncationPolicy = OPTIMAL,
    n_max: Optional[int] = None,
    *,
    log: Optional[TermLog] = None,
) -> Evaluation:
    """Poisson-Jacobi-type transformation for w = 2m.

        (1/2) Gamma(1/2 - m) a^(m-1/2)
        + sum_{k=0}^{m} (-1)^k zeta(2m - 2k) a^k / k!
        + (-1)^m (a/pi)^(2m-1/2)
          sum_{n=1}^{n_max} tail_factor(a; m, n) exp(-pi^2 n^2 / a) / n^(2m)

    Gamma(1/2 - m) comes from the downward recurrence off sqrt(pi);
    the k = m zeta factor is zeta(0) = -1/2.  With n_max=None the
    dual sum stops at the first n whose undecorated magnitude
    exp(-pi^2 n^2 Re(1/a)) / n^(2m) falls below 1e-18 of the value
    accumulated so far (that term is still included), capped at the
    n-series cap.  Under every n_max it stops at the first n whose
    weight exp(-pi^2 n^2 / a) underflows to 0, that n included.

    At m = 0 this is the classical identity, which
    ``evaluate(spec, MethodChoice.CLASSICAL_PJ)`` runs (this function
    takes m >= 1): the tail factor is exactly 1, as (m)_j = 0 for
    j >= 1, so none is computed and the j count is 0.

    One skip rule decides whether a dual term's tail factor is
    computed.  Under OptimalFirstMin every kept j-term has magnitude
    <= 1 and the least term comes by j <= pi^2 n^2 / |a|, so

        |term_n| <= |(a/pi)^(2m-1/2)| exp(-pi^2 n^2 Re(1/a)) / n^(2m)
                    * (1 + pi^2 n^2 / |a|).

    The factor is skipped, and the term adds 0, when its weight
    exp(-pi^2 n^2 / a) underflows to exactly 0 (Re(1/a) above about
    75.5 / n^2) or, under OptimalFirstMin with n_max=None only, when
    that bound is below 1e-18 of the value accumulated so far.  A
    skipped n logs no j-series, and at n = 1 the reported j count is 0.
    Fixed, and any explicit n_max, keep the paper's factors wherever
    the weight is not 0.

    err_estimate adds four parts: the first omitted tail-factor term
    at n = 1, a bound on the omitted dual terms, the bounds of the
    skipped dual terms, and the rounding c eps max|part| with
    eps = 2^-52 and c = 3m + 4.

    The omitted dual terms start at N = n_used + 1.  Undecorated, each
    is at most the one before times exp(-pi^2 Re(1/a) (2N + 1)): the
    weight ratio is exp(-pi^2 Re(1/a) (2n + 1)) and n^(-2m) falls.  So
    their sum is at most the first of them divided by
    1 - exp(-pi^2 Re(1/a) (2N + 1)), the argument of the oracle's tail
    bound.  Where Re(1/a) is small (a near the imaginary axis, or huge)
    the weights barely decay and the dual sum stops at its cap; that
    divisor makes the estimate cover the terms past the cap, which the
    first of them alone does not.  Where the divisor is 0 in binary64,
    or the estimate overflows to inf, the route refuses with
    PrecisionError.

    The rounding: math.fsum rounds the sum once, so the error is what
    the parts bring in, and where they cancel the largest brings the
    most.  With u = eps/2, a k-term brings a few u.  The algebraic part
    and a dual term carry a^(m-1/2) or (a/pi)^(2m-1/2), which Python
    takes in polar form, so the rounding of a/pi, of its modulus and of
    its argument is multiplied by the exponent: against mpmath, up to
    4.3u per unit of m (m = 1..40, |a| in [1e-3, 20], |arg a| <= 1.55),
    2.2 eps.  exp(-pi^2 n^2 / a), the tail factor and the products add
    a few u, hence c = 3m + 4.  Against the same truncated sum in
    50-digit arithmetic, at 4500 seeded points with m in 0..40, |a| in
    [1e-3, 20] and |arg a| <= 1.55, the rounding error stayed below
    0.62 c eps max|part| for m >= 1; at m = 0 it reached 1.33 c at
    |arg a| <= 1.5 and 2.46 c at 1.55, where exp(-pi^2 n^2 / a)
    multiplies the rounding of its argument by |pi^2 n^2 / a| while its
    modulus is not small.

    With a ``log``, the m + 1 k-terms are logged under ``k``, each
    dual term under ``n`` and each computed tail factor's series under
    ``j[n=<n>]``, and ``term_log`` is that log; without one
    ``term_log`` is the shared read-only EMPTY_LOG.

    Raises PrecisionError when an intermediate overflows binary64
    (large m or |a|); from m = 512 on, 2^(2m) does, so such m are
    refused before any term is made.
    """
    a, w = spec
    _require_positive_int(m, "m")
    kind, m_w = classify_exponent(w)
    if kind != EVEN or m_w != m:
        raise DomainError(f"w = {w} is not the even integer 2m = {2 * m} within {INTEGER_TOL}")
    if 2 * m >= _MAX_EXP:
        # refused before the m + 1 k-terms are made, which could take
        # unbounded time: 2^(2m) is past binary64, and the first omitted
        # dual term divides by at least that much
        raise PrecisionError(f"w = {w}: the even transformation divides by 2^{2 * m}, past binary64")
    return _even_transform(a, m, policy, n_max, log)


def _even_transform(
    a: complex, m: int, policy: TruncationPolicy, n_max: Optional[int], log: Optional[TermLog]
) -> Evaluation:
    # eval_even at m >= 1, the classical identity at m = 0.
    #
    # On the real axis the arithmetic runs on z = Re(a) in floats, as
    # tail_factor's does, and gives the complex arithmetic's parts, stop
    # decisions, value and refusals bit for bit, with +0.0 as the value's
    # imaginary part: each power, quotient and product of numbers whose
    # imaginary parts are signed zeros has the float operation's real
    # part, and cmath.exp(x + 0j) is math.exp(x).  A refusal prints the
    # complex a.
    real = a.imag == 0.0
    if real:
        z: complex = a.real
        apow: complex = 1.0  # z^k / k!
        weight = math.exp
        total = _fsum
        zero: complex = 0.0
    else:
        z = a
        apow = 1.0 + 0j
        weight = cmath.exp
        total = _complex_fsum
        zero = 0j
    try:
        # the algebraic part, the k-terms and the dual terms, in one sum;
        # the running sum, for the stop tests, is added left to right
        # whatever the Python version (sum() compensates from 3.12 on)
        e = _exponent(2.0 * m)
        running = e.const * z ** (m - 0.5)
        parts = [running]
        row = e.upto(m)
        k = 0
        while True:
            term = row[k] * apow
            parts.append(term)
            running += term
            if k == m:
                break
            k += 1
            apow *= z / k
        if log is not None:
            log.extend("k", range(m + 1), [abs(t) for t in parts[1:]])

        pref = (z / math.pi) ** (2 * m - 0.5)
        if m & 1:
            pref = -pref
        abs_pref = abs(pref)
        re_inv = (1.0 / z).real
        abs_a = abs(z)
        auto = n_max is None
        ncap = _N_CAP if auto else min(_require_positive_int(n_max, "n_max"), _N_CAP)
        # the skip rule of eval_even: a bound below the floor skips a factor
        # only under OptimalFirstMin with n chosen here
        skip_rel = _REL_FLOOR if auto and isinstance(policy, OptimalFirstMin) else 0.0

        skipped = 0.0
        for n in range(1, ncap + 1):
            nn2 = _PI2 * n * n
            expo = -nn2 * re_inv
            w_mag = math.exp(expo)  # |exp(-pi^2 n^2 / a)|
            nw = n ** (2 * m)
            raw = w_mag / nw
            size = abs(running)
            # auto rule: this n is the last one worth including
            last = auto and raw < _REL_FLOOR * size
            # |tail_factor| <= 1 + pi^2 n^2 / |a| under OptimalFirstMin; a
            # zero weight's 0, not 0 * inf once pi^2 n^2 / |a| overflows
            bound = abs_pref * raw * (1.0 + nn2 / abs_a) if w_mag else 0.0
            if w_mag and bound >= skip_rel * size:
                # at m = 0 the factor is exactly 1: (m)_j = 0 for j >= 1
                ups, j_used, fo = tail_factor(a, m, n, policy, log=log) if m else (1.0, 0, 0.0)
                if real:
                    ups = ups.real
                term = pref * ups * weight(-nn2 / z) / nw
                if real and math.isinf(term):
                    # pref * ups overflowed: complex arithmetic multiplies
                    # that inf by a zero imaginary part, and its term is NaN
                    term = math.nan
            else:
                # the term adds 0 and its bound joins err_estimate
                term, j_used, fo = zero, 0, 0.0
                skipped += bound
            if log is not None:
                log.log("n", n, abs(term))
            parts.append(term)
            running += term
            if n == 1:
                j_used_n1 = j_used
                # the first omitted tail-factor term times its weight,
                # taken as 0 where its argument is -745 or less
                fo_tail_j = abs_pref * fo * (w_mag if expo > -745.0 else 0.0)
            if last or not w_mag:
                # every later weight underflows too
                break

        # n is the last dual term summed
        nn = n + 1
        expon = -_PI2 * nn * nn * re_inv
        fo_tail_n = abs_pref * (math.exp(expon) if expon > -745.0 else 0.0) / nn ** (2 * m)
        if fo_tail_n:
            # the geometric bound on the undecorated dual tail (derived in eval_even)
            fo_tail_n /= -math.expm1(-_PI2 * re_inv * (2 * nn + 1))
        # the rounding of the largest part, c = 3m + 4 (derived in eval_even)
        rounding = (3 * m + 4) * _EPS * max(map(abs, parts))
        err_estimate = fo_tail_j + fo_tail_n + skipped + rounding
        if not math.isfinite(err_estimate):
            # e.g. the dual tail's bound at a huge real a, which divides
            # by about 1/a: an estimate of inf bounds nothing
            raise OverflowError
        # value, method, terms_used, err_estimate, term_log
        return Evaluation(
            complex(total(parts)),
            _EVEN_TRANSFORM if m else _CLASSICAL_PJ,
            {"k": m + 1, "n": n, "j": j_used_n1},
            err_estimate,
            EMPTY_LOG if log is None else log,
        )
    except (OverflowError, ZeroDivisionError):
        # ZeroDivisionError: (a/pi)^(-1/2) once a/pi underflows to 0, or
        # the dual tail's divisor once Re(1/a) rounds to 0
        raise PrecisionError(f"the transformation at a = {a}, w = {2 * m} overflows binary64") from None


# ----------------------------------------------------------------------
# dispatch
# ----------------------------------------------------------------------


def evaluate(
    spec: SumSpec,
    method: MethodChoice,
    policy: TruncationPolicy = OPTIMAL,
    n_max: Optional[int] = None,
    eps: float = 1e-16,
    *,
    log: Optional[TermLog] = None,
) -> Evaluation:
    """Evaluate the sum by the chosen route.

    DIRECT delegates to the oracle (err_estimate is its noise floor).
    EVEN_TRANSFORM derives m from w and requires w = 2m within
    tolerance; CLASSICAL_PJ requires w = 0 and runs the same
    transformation at m = 0.  Both sum n_max dual terms, or choose the
    count themselves when n_max is None.  A ``log`` is passed on to the
    route, which logs its terms there (the direct route logs none);
    ``term_log`` is that log, or the shared read-only EMPTY_LOG
    without one.
    """
    if method is _GENERIC:
        return eval_generic(spec, policy, log=log)
    if method is _DIRECT:
        res = direct_sum(spec, eps)
        # value, method, terms_used, err_estimate, term_log
        return Evaluation(
            res.value,
            _DIRECT,
            {"n_direct": res.n_terms},
            res.noise_floor(),
            EMPTY_LOG if log is None else log,
        )
    if method is _EVEN_TRANSFORM:
        kind, m = classify_exponent(spec.w)
        if kind != EVEN:
            raise DomainError(f"EvenTransform requires w = 2m for integer m >= 1, got w = {spec.w}")
        return eval_even(spec, m, policy, n_max, log=log)
    if method is _CLASSICAL_PJ:
        if abs(spec.w) > INTEGER_TOL:
            raise DomainError(f"ClassicalPJ requires w = 0, got w = {spec.w}")
        return _even_transform(spec.a, 0, policy, n_max, log)
    raise DomainError(f"unknown method {method!r}")
