"""Runtime verification suite behind the ``verify`` CLI subcommand.

Each check re-measures one of the package's standing invariants and
compares it against its pinned bound.  The checks reach the routes only
through ``engine.evaluate``, the tail factor too: its series is read
from the log of an even evaluation with one dual term.  The checks are
deterministic (seeded randomness only) so repeated runs produce
identical reports.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from .engine import (
    EVEN,
    ODD,
    _complex_fsum,
    _require_positive_int,
    classify_exponent,
    evaluate,
)
from .errors import DomainError, PrecisionError
from .model import OPTIMAL, Fixed, MethodChoice, SumSpec, TermLog, TruncationPolicy
from .oracle import direct_sum
from .reference import W4_ROWS
from .specfun import digamma_int, gamma_real, zeta_real

__all__ = ["CheckResult", "SUITE_NAMES", "remainder_slope", "run_suite"]

_SEED = 987654321


class CheckResult(NamedTuple):
    suite: str
    name: str
    measured: float
    bound: str
    passed: bool


def _check(suite: str, name: str, measured: float, bound: str, passed: bool) -> CheckResult:
    return CheckResult(suite, name, float(measured), bound, bool(passed))


# ----------------------------------------------------------------------
# specfun invariants
# ----------------------------------------------------------------------


def _bernoulli_even(n_max: int) -> tuple[float, ...]:
    # B_2, B_4, ..., B_{2 n_max} from the binomial recurrence
    # sum_{r<=m} C(m+1, r) B_r = 0 over even indices only (odd B vanish
    # beyond B_1 = -1/2), in exact rationals rounded once at the end.
    # Independent of zeta_real, so the zeta <-> Bernoulli identity is a
    # non-circular cross-check.
    from fractions import Fraction  # here, so only a verify run pays for it

    table = [Fraction(1)]
    for m in range(1, n_max + 1):
        acc = Fraction(2 * m + 1) * Fraction(-1, 2)
        for j in range(m):
            acc += math.comb(2 * m + 1, 2 * j) * table[j]
        table.append(-acc / (2 * m + 1))
    return tuple(float(b) for b in table[1:])


def _pochhammer(x: float, j: int) -> float:
    # rising factorial x (x+1) ... (x+j-1); 1 for j = 0
    acc = 1.0
    for i in range(j):
        acc *= x + i
    return acc


def _inv_factorial_coeff_doubled(m: int, j: int) -> float:
    # the tail-factor coefficient (m)_j (m+1/2)_j / j! through the
    # closed form 2^(-2j) (2m)_{2j} / j!
    acc = 1.0
    for i in range(j):
        acc *= (2 * m + 2 * i) * (2 * m + 2 * i + 1) / (4.0 * (i + 1.0))
    return acc


def _gamma_recurrence_worst(seed: int) -> float:
    """Worst relative gap of Gamma(x + 1) = x Gamma(x) over 100 points
    x drawn uniformly from [-10, 10] by ``seed``, skipping x within 1e-3
    of a pole."""
    import random  # here, so that the CLI does not load it

    rng = random.Random(seed)
    worst = 0.0
    count = 0
    while count < 100:
        x = rng.uniform(-10.0, 10.0)
        if x < 0.5 and abs(x - round(x)) < 1e-3:
            continue
        lhs = gamma_real(x + 1.0)
        rhs = x * gamma_real(x)
        worst = max(worst, abs(lhs - rhs) / abs(lhs))
        count += 1
    return worst


def _tail_series(a: float, m: int, policy: TruncationPolicy) -> tuple[list[float], int]:
    """The magnitudes of the n = 1 tail factor's terms at a, w = 2m, the
    first omitted one included, and its count of included terms."""
    log = TermLog()
    ev = evaluate(SumSpec(a, 2.0 * m), MethodChoice.EVEN_TRANSFORM, policy, n_max=1, log=log)
    return [mag for _, mag in log.series("j[n=1]")], ev.terms_used["j"]


def checks_specfun() -> list[CheckResult]:
    out: list[CheckResult] = []

    worst = 0.0
    for s in (-5.5, -2.3, -0.7, 0.3):
        rhs = (
            2.0**s
            * math.pi ** (s - 1.0)
            * math.sin(math.pi * s / 2.0)
            * gamma_real(1.0 - s)
            * zeta_real(1.0 - s)
        )
        worst = max(worst, abs(zeta_real(s) - rhs) / abs(rhs))
    out.append(_check("specfun", "zeta reflection consistency", worst, "rel <= 1e-10", worst <= 1e-10))

    worst = max(abs(zeta_real(-2.0 * k)) for k in range(1, 21))
    out.append(_check("specfun", "zeta trivial zeros k=1..20", worst, "== 0 exactly", worst == 0.0))

    worst = 0.0
    for n, b in enumerate(_bernoulli_even(15), start=1):
        z = zeta_real(2.0 * n)
        ident = (2.0 * math.pi) ** (2 * n) * abs(b) / (2.0 * math.factorial(2 * n))
        worst = max(worst, abs(z - ident) / z)
    out.append(_check("specfun", "bernoulli-zeta identity n=1..15", worst, "rel <= 1e-10", worst <= 1e-10))

    worst = 0.0
    for m in range(1, 6):
        # the engine's tail-factor terms c_j x^j, |x| = 1/pi^2 at a = 1
        mags, _ = _tail_series(1.0, m, Fixed(31))
        for j, mag in enumerate(mags[:31]):
            c = _inv_factorial_coeff_doubled(m, j)
            worst = max(worst, abs(mag * (math.pi * math.pi) ** j - c) / c)
    out.append(_check("specfun", "coefficient two-form equality", worst, "rel <= 1e-12", worst <= 1e-12))

    worst = _gamma_recurrence_worst(_SEED)
    out.append(_check("specfun", "gamma recurrence (100 random x)", worst, "rel <= 1e-12", worst <= 1e-12))

    worst = max(abs(digamma_int(m) - digamma_int(m - 1) - 1.0 / m) for m in range(1, 51))
    out.append(_check("specfun", "digamma recurrence m=1..50", worst, "abs <= 1e-15", worst <= 1e-15))

    rel2 = abs(zeta_real(2.0) - math.pi**2 / 6.0) / (math.pi**2 / 6.0)
    rel4 = abs(zeta_real(4.0) - math.pi**4 / 90.0) / (math.pi**4 / 90.0)
    worst = max(rel2, rel4)
    out.append(_check("specfun", "zeta(2), zeta(4) closed forms", worst, "rel <= 1e-14", worst <= 1e-14))

    return out


# ----------------------------------------------------------------------
# oracle invariants
# ----------------------------------------------------------------------


def _plain_partial(a: complex, w: float, n_terms: int) -> tuple[complex, float]:
    # the first n_terms terms summed by the engine's rule, and sum |term|
    terms = [cmath.exp(-a * (n * n)) / math.pow(n, w) for n in range(1, n_terms + 1)]
    return _complex_fsum(terms), math.fsum(abs(t) for t in terms)


def _tail_bound_soundness(seed: int) -> tuple[float, bool]:
    """Doubling the cutoff must move the value by less than the reported
    tail bound, up to the rounding budget of the two summation paths.
    Returns the worst moved/allowance ratio over 50 specs drawn by
    ``seed`` and whether every spec stayed within its allowance."""
    import random

    rng = random.Random(seed)
    eps_mach = 2.220446049250313e-16
    worst_ratio = 0.0
    sound = True
    for _ in range(50):
        a = rng.uniform(0.05, 5.0)
        w = rng.uniform(1e-6, 6.0)
        spec = SumSpec(a, w)
        res = direct_sum(spec, 1e-12)
        doubled, doubled_mag = _plain_partial(spec.a, w, 2 * res.n_terms)
        moved = abs(doubled - res.value)
        allowance = res.tail_bound + res.rounding_bound + 2 * res.n_terms * eps_mach * doubled_mag
        if allowance > 0.0:
            worst_ratio = max(worst_ratio, moved / allowance)
        sound = sound and moved <= allowance
    return worst_ratio, sound


def checks_oracle() -> list[CheckResult]:
    out: list[CheckResult] = []

    worst_ratio, sound = _tail_bound_soundness(_SEED)
    out.append(
        _check("oracle", "tail bound soundness (50 random specs)", worst_ratio, "moved/(tail+rounding) <= 1", sound)
    )

    monotone = True
    for a, w in ((0.1, 1.5), (0.5, 4.0), (2.0, 0.5)):
        spec = SumSpec(a, w)
        res = direct_sum(spec)
        limit = res.value.real + res.tail_bound + res.rounding_bound
        acc = 0.0
        prev = 0.0
        ok = True
        for n in range(1, res.n_terms + 1):
            acc += math.exp(-a * n * n) / math.pow(n, w)
            ok = ok and acc >= prev and acc <= limit
            prev = acc
        monotone = monotone and ok
    out.append(_check("oracle", "partial-sum monotonicity (real a)", 1.0 if monotone else 0.0, "increasing, bounded", monotone))

    diff = abs(direct_sum(SumSpec(1e-6, 6.0)).value - zeta_real(6.0))
    out.append(_check("oracle", "zeta limit w=6, a=1e-6", diff, "abs <= 1e-5", diff <= 1e-5))

    return out


# ----------------------------------------------------------------------
# engine invariants
# ----------------------------------------------------------------------


def _literal_quadratic(a: float, terms: int, n_max: int) -> float:
    # independent rendering of the m = 1 transformation
    head = math.pi**2 / 6.0 + a / 2.0 - math.sqrt(math.pi * a)
    tail = 0.0
    for n in range(1, n_max + 1):
        # left to right: sum() compensates over floats from 3.12 on
        ups = 0.0
        for j in range(terms):
            ups += _pochhammer(1.5, j) * (-a / (math.pi**2 * n * n)) ** j
        tail += math.exp(-math.pi**2 * n * n / a) / (n * n) * ups
    return head - (a / math.pi) ** 1.5 * tail


def _literal_quartic(a: float, terms: int, n_max: int) -> float:
    # independent rendering of the m = 2 transformation
    head = (
        math.pi**4 / 90.0
        - math.pi**2 * a / 6.0
        - a * a / 4.0
        + (2.0 / 3.0) * math.sqrt(math.pi) * a**1.5
    )
    tail = 0.0
    for n in range(1, n_max + 1):
        # left to right: sum() compensates over floats from 3.12 on
        ups = 0.0
        for j in range(terms):
            ups += (
                _pochhammer(2.5, j) * _pochhammer(2, j) / math.factorial(j)
                * (-a / (math.pi**2 * n * n)) ** j
            )
        tail += math.exp(-math.pi**2 * n * n / a) / n**4 * ups
    return head + (a / math.pi) ** 3.5 * tail


def checks_engine() -> list[CheckResult]:
    out: list[CheckResult] = []

    worst = 0.0
    for w in (0.5, 1.0, 1.5, 2.5, 3.0, 5.25):
        for a in (0.01, 0.05, 0.1):
            spec = SumSpec(a, w)
            err = abs(evaluate(spec, MethodChoice.GENERIC, OPTIMAL).value - direct_sum(spec).value)
            worst = max(worst, err)
    out.append(_check("engine", "generic oracle equivalence (18-point grid)", worst, "abs <= 1e-11", worst <= 1e-11))

    ok = True
    worst = 0.0
    for m in (1, 2, 3):
        for a in (0.5, 1.0, 2.0):
            spec = SumSpec(a, 2.0 * m)
            ev = evaluate(spec, MethodChoice.EVEN_TRANSFORM, OPTIMAL)
            err = abs(ev.value - direct_sum(spec).value)
            bound = 10.0 * ev.err_estimate
            ok = ok and err <= bound
            if bound > 0:
                worst = max(worst, err / bound)
            if a <= 1.0:
                ok = ok and ev.err_estimate <= 1e-3 * abs(ev.value)
    out.append(_check("engine", "even-transform error-estimate honesty", worst, "err <= 10x estimate", ok))

    worst = 0.0
    for a in (0.5, 1.0, 2.0, math.pi):
        spec = SumSpec(a, 0.0)
        pj = evaluate(spec, MethodChoice.CLASSICAL_PJ, n_max=12).value
        worst = max(worst, abs(pj - direct_sum(spec).value))
    out.append(_check("engine", "classical identity a in {0.5,1,2,pi}", worst, "abs <= 1e-13", worst <= 1e-13))

    worst = 0.0
    for a in (0.5, 1.0):
        for terms in (1, 3, 5):
            e1 = evaluate(SumSpec(a, 2.0), MethodChoice.EVEN_TRANSFORM, Fixed(terms), n_max=5)
            e2 = evaluate(SumSpec(a, 4.0), MethodChoice.EVEN_TRANSFORM, Fixed(terms), n_max=5)
            worst = max(worst, abs(e1.value - _literal_quadratic(a, terms, 5)) / abs(e1.value))
            worst = max(worst, abs(e2.value - _literal_quartic(a, terms, 5)) / abs(e2.value))
    out.append(_check("engine", "specialization vs literal m=1,2 forms", worst, "rel <= 1e-13", worst <= 1e-13))

    worst = 0.0
    for theta in (-1.2, -0.6, 0.0, 0.6, 1.2):
        a = 0.5 * cmath.exp(1j * theta)
        spec = SumSpec(a, 4.0)
        ev = evaluate(spec, MethodChoice.EVEN_TRANSFORM, OPTIMAL)
        worst = max(worst, abs(ev.value - direct_sum(spec).value))
    out.append(_check("engine", "sector validity |arg a| <= 1.2", worst, "abs <= 1e-9", worst <= 1e-9))

    ok = True
    for a, m in ((0.5, 1), (1.0, 2), (0.25, 2), (2.0, 3)):
        mags, j_used = _tail_series(a, m, OPTIMAL)
        j0 = j_used - 1
        is_min = (j0 + 1 < len(mags) and mags[j0] <= mags[j0 + 1]) and (
            j0 == 0 or mags[j0] < mags[j0 - 1]
        )
        ok = ok and is_min
    out.append(_check("engine", "least-term index is a log local minimum", 1.0 if ok else 0.0, "local min", ok))

    worst_gap = 0
    factor_ok = True
    noise_ok = True
    errs = []  # at the rows a = 0.75 .. 2.00, for the monotone check
    for row in W4_ROWS:
        spec = SumSpec(row.a, 4.0)
        ev = evaluate(spec, MethodChoice.EVEN_TRANSFORM, OPTIMAL, n_max=1)
        err = abs(ev.value - direct_sum(spec).value)
        if row.a >= 0.75:
            errs.append(err)
        j0 = ev.terms_used["j"] - 1
        worst_gap = max(worst_gap, abs(j0 - row.j0))
        if row.reachable:
            factor_ok = factor_ok and (0.5 <= err / row.abs_err <= 2.0)
        else:
            noise_ok = noise_ok and err <= 1e-13
    monotone = all(errs[i] <= errs[i + 1] for i in range(len(errs) - 1))
    out.append(_check("engine", "monotone error degradation in a (m=2)", max(errs), "non-decreasing", monotone))
    out.append(_check("engine", "w=4 least-term index vs reference", worst_gap, "within +-2", worst_gap <= 2))
    out.append(_check("engine", "w=4 reachable-row errors vs reference", 1.0 if factor_ok else 0.0, "within factor 2", factor_ok))
    out.append(_check("engine", "w=4 unreachable rows at oracle resolution", 1.0 if noise_ok else 0.0, "abs <= 1e-13", noise_ok))

    return out


# ----------------------------------------------------------------------
# appendix: empirical remainder scaling
# ----------------------------------------------------------------------


def remainder_slope(w: float, N: int, a_grid: list[float]) -> float:
    """Log-log slope of the generic-expansion remainder over a grid.

    For each grid point the remainder R_N(a) = direct sum minus
    [singular_term + primed k-sum over k < N] is measured against the
    oracle; the least-squares slope of log |R_N| against log a is
    returned.  As a -> 0 the remainder is dominated by the first
    omitted term, so the measured slope sits near N (within 0.15 for
    N <= 6 on grids inside [1e-3, 1e-1]); any slope >= N - 1/2
    confirms the uniform remainder bound O(a^(N - 1/2)), which the
    contour estimate guarantees but which is not tight for real a.

    Raises PrecisionError when any measured remainder falls below 100x
    the oracle noise floor: the regression would fit rounding noise.
    """
    # imported here, so that neither the routes nor the CLI load it
    import statistics

    w = float(w)
    if not (math.isfinite(w) and w > 0.0):
        raise DomainError(f"remainder_slope requires a finite w > 0, got {w}")
    kind, _ = classify_exponent(w)
    if kind == EVEN:
        raise DomainError("remainder_slope requires w not an even integer")
    _require_positive_int(N, "N")
    if not N > 0.5 * w + 0.5:
        raise DomainError(f"requires N > w/2 + 1/2 = {0.5 * w + 0.5}, got N = {N}")
    grid = [float(x) for x in a_grid]
    if len(grid) < 4:
        raise DomainError("a_grid needs at least 4 points")
    if any(not 0.0 < x <= 0.2 for x in grid):
        raise DomainError("a_grid must lie in (0, 0.2]")
    ratios = [grid[i + 1] / grid[i] for i in range(len(grid) - 1)]
    if any(abs(r / ratios[0] - 1.0) > 1e-6 for r in ratios) or abs(ratios[0] - 1.0) < 1e-9:
        raise DomainError("a_grid must be geometrically spaced")

    # the k = m term of an odd w lives in the singular term
    below_n = Fixed(N - 1 if kind == ODD else N)
    xs: list[float] = []
    ys: list[float] = []
    for a in grid:
        spec = SumSpec(a, w)
        ref = direct_sum(spec, 1e-16)
        remainder = abs(ref.value - evaluate(spec, MethodChoice.GENERIC, below_n).value)
        floor = 1e2 * ref.noise_floor()
        if remainder < floor:
            raise PrecisionError(
                f"remainder {remainder:.3e} at a = {a} is below the noise floor "
                f"{floor:.3e}; the slope would be meaningless"
            )
        xs.append(math.log(a))
        ys.append(math.log(remainder))
    return statistics.linear_regression(xs, ys).slope


def checks_appendix() -> list[CheckResult]:
    out: list[CheckResult] = []
    grid = [0.0125, 0.025, 0.05, 0.1]

    for w, n_trunc in ((1.3, 2), (3.0, 3)):
        slope = remainder_slope(w, n_trunc, grid)
        # the remainder tracks its first omitted term a^N ...
        near = abs(slope - n_trunc) <= 0.15
        out.append(
            _check("appendix", f"remainder slope (w={w}, N={n_trunc}) ~ N", slope, f"{n_trunc} +- 0.15", near)
        )
        # ... which in particular confirms the uniform O(a^(N-1/2)) bound
        bound = slope >= n_trunc - 0.5
        out.append(
            _check("appendix", f"remainder bound O(a^(N-1/2)) (w={w}, N={n_trunc})", slope, f">= {n_trunc - 0.5}", bound)
        )

    try:
        remainder_slope(1.3, 8, grid)
        raised = False
    except Exception as exc:  # without the guard, log(0) raises ValueError
        raised = isinstance(exc, PrecisionError)
    out.append(
        _check("appendix", "noise-floor guard raises (w=1.3, N=8)", 1.0 if raised else 0.0, "PrecisionError", raised)
    )
    return out


_SUITES = {
    "specfun": checks_specfun,
    "oracle": checks_oracle,
    "engine": checks_engine,
    "appendix": checks_appendix,
}

SUITE_NAMES = (*_SUITES, "all")


def run_suite(name: str) -> list[CheckResult]:
    if name == "all":
        return [result for checks in _SUITES.values() for result in checks()]
    if name not in _SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    return _SUITES[name]()
