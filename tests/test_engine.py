"""Expansion engine: frozen examples, guards, policies and series loops.

The w = 4 rows, the sector and degradation checks, the least-term
local minimum and the remainder bound are checks of the ``verify``
engine and appendix suites (test_cli runs them); the generic oracle
grid, error-estimate honesty and the specialization fixtures are
asserted both there and here.
"""

import ast
import cmath
import math
import os
import random
import re
import subprocess
import sys
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import pytest

from thetasum import (
    OPTIMAL,
    DomainError,
    Evaluation,
    Fixed,
    MethodChoice,
    OracleResult,
    PrecisionError,
    SumSpec,
    TermLog,
    direct_sum,
    evaluate,
)
from thetasum import engine
from thetasum.engine import eval_even, eval_generic, singular_term, tail_factor
from thetasum.errors import PoleError, ThetaSumError
from thetasum.model import EMPTY_LOG, OptimalFirstMin
from thetasum.reference import W4_ROWS, ReferenceRow
from thetasum.specfun import EULER_GAMMA, digamma_int, gamma_real, zeta_real
from thetasum.verify import (
    CheckResult,
    _literal_quadratic,
    _literal_quartic,
    _pochhammer,
    remainder_slope,
)

GRID = [0.0125, 0.025, 0.05, 0.1]


# ----------------------------------------------------------------------
# classical transformation
# ----------------------------------------------------------------------


def _classical(a, n_max):
    return evaluate(SumSpec(a, 0.0), MethodChoice.CLASSICAL_PJ, n_max=n_max).value


def test_classical_at_self_dual_point():
    # a = pi is the fixed point of a <-> pi^2/a; value frozen from the
    # direct-summation oracle
    value = _classical(math.pi, 10)
    ref = direct_sum(SumSpec(math.pi, 0.0)).value
    assert abs(value - ref) <= 1e-15
    assert value.real == pytest.approx(0.043217405606654007, rel=1e-13)


def test_classical_large_a_dominant_term():
    # identity holds to rounding of the O(1) intermediates; the value
    # itself equals the n = 1 direct term exp(-50) up to that noise
    value = _classical(50.0, 25)
    assert abs(value - direct_sum(SumSpec(50.0, 0.0)).value) <= 1e-15


def test_classical_domain():
    with pytest.raises(DomainError):
        _classical(-1.0, 5)
    with pytest.raises(DomainError):
        _classical(complex(0.0, 1.0), 5)
    with pytest.raises(DomainError):
        _classical(1.0, 0)


# ----------------------------------------------------------------------
# singular term
# ----------------------------------------------------------------------


def test_singular_term_w1_literal():
    a = 0.3
    got = singular_term(SumSpec(a, 1.0))
    # m = 0: EULER_GAMMA - (1/2) log a + (1/2) psi(1)
    want = EULER_GAMMA - 0.5 * math.log(a) + 0.5 * digamma_int(0)
    assert got == pytest.approx(want, rel=1e-15)
    assert want == pytest.approx(0.5 * EULER_GAMMA - 0.5 * math.log(a), rel=1e-15)


def test_singular_term_half_exponent_literal():
    got = singular_term(SumSpec(0.01, 0.5))
    want = 0.5 * gamma_real(0.25) * 0.01 ** (-0.25)
    assert got == pytest.approx(want, rel=1e-14)


def test_singular_term_w3_literal():
    a = 0.1
    got = singular_term(SumSpec(a, 3.0))
    want = -a * (EULER_GAMMA - 0.5 * math.log(a) + 0.5 * digamma_int(1))
    assert got == pytest.approx(want, rel=1e-14)


def test_singular_term_guards():
    with pytest.raises(DomainError, match=r"^w = 4\.0 is an even integer; use the even-exponent transformation$"):
        singular_term(SumSpec(0.1, 4.0))
    with pytest.raises(DomainError, match=r"^w = 2\.0000000001 is an even integer; use the even-exponent"):
        singular_term(SumSpec(0.1, 2.0 + 1e-10))
    with pytest.raises(DomainError):
        singular_term(SumSpec(0.1, 0.0))


# ----------------------------------------------------------------------
# generic expansion
# ----------------------------------------------------------------------


@pytest.mark.parametrize("w", [0.5, 1.0, 1.5, 2.5, 3.0, 5.25])
@pytest.mark.parametrize("a", [0.01, 0.05, 0.1])
def test_generic_oracle_equivalence(w, a):
    """Kept beside verify's check: each id names its point, verify only the worst."""
    spec = SumSpec(a, w)
    ev = eval_generic(spec, OPTIMAL)
    assert abs(ev.value - direct_sum(spec).value) <= 1e-11


def test_generic_even_exponent_guard():
    with pytest.raises(DomainError, match=r"^w = 4\.0 is an even integer; use the even-exponent transformation$"):
        eval_generic(SumSpec(0.1, 4.0))


def test_generic_near_odd_warning():
    assert eval_generic(SumSpec(0.05, 3.01)).near_odd_warning
    assert not eval_generic(SumSpec(0.05, 3.0)).near_odd_warning
    assert not eval_generic(SumSpec(0.05, 2.5)).near_odd_warning
    assert eval_generic(SumSpec(0.05, 0.96)).near_odd_warning


def test_generic_err_estimate_is_least_logged_term():
    # under first-local-min truncation the omitted least term is both
    # the truncation part of the error estimate and the smallest
    # magnitude in the log; the rest is the rounding term over the
    # singular term and the kept k-terms
    spec = SumSpec(0.05, 1.5)
    ev = eval_generic(spec, OPTIMAL, log=TermLog())
    mags = [m for _, m in ev.term_log.series("k")]
    abs_kept = abs(singular_term(spec))
    for mag in mags[: ev.terms_used["k"]]:
        abs_kept += mag  # left to right, as the engine adds
    rounding = engine._ROUNDING_C * sys.float_info.epsilon * abs_kept
    assert ev.err_estimate == min(mags) + rounding


def test_generic_fixed_policy_counts():
    ev = eval_generic(SumSpec(0.05, 1.5), Fixed(3), log=TermLog())
    assert ev.terms_used["k"] == 3
    # the log contains the three included terms plus the first omitted
    assert len(ev.term_log.series("k")) == 4


def test_generic_fixed_partial_sums_nest():
    spec = SumSpec(0.05, 1.5)
    j = singular_term(spec)
    t0 = eval_generic(spec, Fixed(1)).value
    t1 = eval_generic(spec, Fixed(2)).value
    # first included term is zeta(w) a^0, second -zeta(w-2) a
    assert t0 == pytest.approx(j + zeta_real(1.5), rel=1e-14)
    assert t1 == pytest.approx(j + zeta_real(1.5) - zeta_real(-0.5) * 0.05, rel=1e-14)


def test_generic_odd_w_skips_logged_index():
    ev = eval_generic(SumSpec(0.05, 3.0), OPTIMAL, log=TermLog())
    indices = [i for i, _ in ev.term_log.series("k")]
    assert 1 not in indices  # k = m = 1 lives in the singular term
    assert 0 in indices and 2 in indices


def test_generic_complex_parameter():
    spec = SumSpec(0.05 + 0.02j, 1.5)
    ev = eval_generic(spec, OPTIMAL)
    assert abs(ev.value - direct_sum(spec).value) <= 1e-11


# ----------------------------------------------------------------------
# even-exponent transformation
# ----------------------------------------------------------------------


def test_even_reference_value_six_decimals():
    ev = eval_even(SumSpec(1.0, 4.0), 2, OPTIMAL, n_max=1)
    assert f"{ev.value.real:.6f}" == "0.369026"


def test_even_m1_matches_oracle_and_literal():
    a = 0.5
    spec = SumSpec(a, 2.0)
    ev = eval_even(spec, 1, OPTIMAL)
    assert abs(ev.value - direct_sum(spec).value) <= 1e-12


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_even_error_estimate_honesty(m, a):
    """Kept beside verify's check: each id names its point, verify only the worst."""
    spec = SumSpec(a, 2.0 * m)
    ev = eval_even(spec, m, OPTIMAL)
    err = abs(ev.value - direct_sum(spec).value)
    assert err <= 10.0 * ev.err_estimate
    if a <= 1.0:
        assert ev.err_estimate <= 1e-3 * abs(ev.value)


def test_even_mismatch_guard():
    with pytest.raises(DomainError, match=r"^w = 4\.0 is not the even integer 2m = 2 within 1e-09$"):
        eval_even(SumSpec(0.5, 4.0), 1)
    with pytest.raises(DomainError, match=r"^w = 4\.1 is not the even integer 2m = 4 within 1e-09$"):
        eval_even(SumSpec(0.5, 4.1), 2)
    with pytest.raises(DomainError):
        eval_even(SumSpec(0.5, 4.0), 0)


def test_even_n_max_is_none_or_positive_int():
    spec = SumSpec(0.5, 4.0)
    assert eval_even(spec, 2, OPTIMAL, None).value == eval_even(spec, 2).value
    for bad in ("auto", 0, 1.0):
        with pytest.raises(DomainError):
            eval_even(spec, 2, OPTIMAL, n_max=bad)


@pytest.mark.parametrize("a", [0.5, 1.0])
@pytest.mark.parametrize("terms", [1, 3, 5])
def test_even_specialization_fixtures(a, terms):
    """Kept beside verify's check: each id names its point, verify only the worst."""
    e1 = eval_even(SumSpec(a, 2.0), 1, Fixed(terms), n_max=5)
    e2 = eval_even(SumSpec(a, 4.0), 2, Fixed(terms), n_max=5)
    assert abs(e1.value - _literal_quadratic(a, terms, 5)) / abs(e1.value) <= 1e-13
    assert abs(e2.value - _literal_quartic(a, terms, 5)) / abs(e2.value) <= 1e-13


def test_even_auto_n_keeps_neglected_terms_small():
    ev = eval_even(SumSpec(2.0, 4.0), 2, OPTIMAL)
    n_used = ev.terms_used["n"]
    assert 1 <= n_used <= 50
    # the first omitted dual term is inside the reported estimate
    nn = n_used + 1
    omitted = abs((2.0 / math.pi) ** 3.5) * math.exp(-math.pi**2 * nn * nn / 2.0) / nn**4
    assert omitted <= ev.err_estimate


def test_even_and_pj_estimates_bound_the_dual_tail_near_the_imaginary_axis():
    # Re(1/a) is small, so the dual weights decay slowly and the dual
    # sum stops at its cap: the terms past it add up to many times the
    # first of them, and only their geometric bound covers the error
    rng = random.Random(20261019)
    for _ in range(60):
        im = rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 3.0)
        a = complex(math.exp(rng.uniform(math.log(1e-4), math.log(0.1))), im)
        for w in (0.0, 2.0, 4.0):
            spec = SumSpec(a, w)
            ev = evaluate(spec, MethodChoice.CLASSICAL_PJ if w == 0.0 else MethodChoice.EVEN_TRANSFORM)
            ref = direct_sum(spec)
            assert abs(ev.value - ref.value) <= ev.err_estimate + ref.noise_floor(), (a, w)
    # Re(1/a) rounds to 0: the weights do not decay and no bound is finite
    for w in (0.0, 4.0):
        with pytest.raises(PrecisionError):
            evaluate(SumSpec(5e-324 + 10j, w), MethodChoice.CLASSICAL_PJ if w == 0.0 else MethodChoice.EVEN_TRANSFORM)


def _count_tail_factor_calls(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return tail_factor(*args, **kwargs)

    monkeypatch.setattr(engine, "tail_factor", counted)
    return calls


def _skipped_bounds(a, m, n_used):
    # the bound eval_even adds to err_estimate for each skipped dual term
    pref = abs((a / math.pi) ** (2 * m - 0.5))
    return sum(
        pref * math.exp(-math.pi**2 * n * n * (1 / a).real) / n ** (2 * m) * (1 + math.pi**2 * n * n / abs(a))
        for n in range(1, n_used + 1)
    )


@pytest.mark.parametrize("a", [0.01, 0.005 + 0.002j, 0.1, 0.25, 0.05 + 0.02j])
@pytest.mark.parametrize("m", [2, 3])
def test_even_skips_dual_terms_whose_weight_underflows(monkeypatch, a, m):
    # Re(1/a) >= 100: exp(-pi^2 n^2 / a) is exactly 0 for every n;
    # 4 <= Re(1/a) <= 10: the weight is not 0, but each term's bound is
    # below 1e-18 of the value, so no factor is computed either
    calls = _count_tail_factor_calls(monkeypatch)
    spec = SumSpec(a, 2.0 * m)
    ev = eval_even(spec, m, OPTIMAL, log=TermLog())
    assert calls == []
    assert ev.terms_used["j"] == 0
    assert not any(name.startswith("j[n=") for name, _, _ in ev.term_log.entries)
    ref = direct_sum(spec)
    assert abs(ev.value - ref.value) <= ref.noise_floor()
    assert ev.err_estimate >= _skipped_bounds(a, m, ev.terms_used["n"]) * (1 - 1e-12)


@pytest.mark.parametrize("policy", [Fixed(3)], ids=repr)
def test_even_skips_for_the_bound_only_under_the_optimal_policy(monkeypatch, policy):
    calls = _count_tail_factor_calls(monkeypatch)
    ev = eval_even(SumSpec(0.25, 4.0), 2, policy)
    assert len(calls) == ev.terms_used["n"] == 2
    assert ev.terms_used["j"] >= 1


def test_even_keeps_dual_terms_whose_weight_is_nonzero(monkeypatch):
    calls = _count_tail_factor_calls(monkeypatch)
    ev = eval_even(SumSpec(0.1, 4.0), 2, OPTIMAL, n_max=1)
    assert len(calls) == 1
    assert ev.terms_used["j"] - 1 == W4_ROWS[0].j0


@pytest.mark.parametrize("a,w", [(0.5, 648.0), (1000.0, 200.0), (0.5 + 0.8j, 648.0)])
def test_even_overflow_is_a_precision_error(a, w):
    with pytest.raises(PrecisionError, match="overflows binary64"):
        eval_even(SumSpec(a, w), round(w / 2))


def test_even_infinite_dual_term_is_a_precision_error():
    # the n = 1 dual term is infinite though no operation raised
    # OverflowError, and math.fsum passes an infinity through; every
    # n_max refuses with PrecisionError, as n_max None does
    spec = SumSpec(4.502849479481221 - 11.322465336219704j, 488.0)
    with pytest.raises(PrecisionError):
        eval_even(spec, 244, Fixed(8), n_max=1)
    with pytest.raises(PrecisionError):
        eval_even(spec, 244, Fixed(8), n_max=3)
    with pytest.raises(PrecisionError):
        evaluate(spec, MethodChoice.EVEN_TRANSFORM, Fixed(8), n_max=2)


@pytest.mark.parametrize("w", [1024.0, 1e5, 1e10])
def test_even_refuses_w_whose_power_of_two_overflows(monkeypatch, w):
    # refused before any term is made, so w = 1e10 cannot hang
    def no_terms(*args):
        raise AssertionError("a term was made")

    monkeypatch.setattr(engine, "_exponent", no_terms)
    with pytest.raises(PrecisionError, match="past binary64"):
        eval_even(SumSpec(1e-3, w), round(w / 2))


@pytest.mark.parametrize("w", [800.0, 1022.0])
def test_even_below_the_power_of_two_limit_still_answers(w):
    # m + 1 = 401 and 512 k-terms, more than the generic k-series cap
    spec = SumSpec(1e-3, w)
    ev = eval_even(spec, round(w / 2))
    assert ev.terms_used["k"] == round(w / 2) + 1
    assert abs(ev.value - direct_sum(spec).value) <= 1e-15


@pytest.mark.parametrize("a", [5.0, 1000.0, 3.0 + 4.0j])
def test_generic_singular_overflow_is_a_precision_error(a):
    # a^((w-1)/2) is past binary64
    with pytest.raises(PrecisionError, match="overflows binary64"):
        eval_generic(SumSpec(a, 1100.5))


@pytest.mark.parametrize(
    "a,w,count",
    [
        (24224.5 - 16702.4j, 20.8, 185),  # the terms' sum overflows
        (64.5112 - 63.4253j, 41.9328, 252),  # a term's magnitude overflows
        (1e100, 3.0, 3),  # only the first omitted term, so err_estimate, overflows
        (1e10 + 3e9j, 3.0, 30),
    ],
)
def test_generic_k_terms_past_binary64_are_a_precision_error(a, w, count):
    # |a|^k / k! grows past binary64 long before the Fixed policy's count
    with pytest.raises(PrecisionError):
        eval_generic(SumSpec(a, w), Fixed(count))


@pytest.mark.parametrize("w", [343.0, 1025.0, 1e10 + 1.0])
def test_generic_refuses_an_odd_w_whose_factorial_overflows(monkeypatch, w):
    # refused before psi(m+1) is summed, so w = 1e10 + 1 cannot hang
    def no_digamma(m):
        raise AssertionError("psi(m+1) was computed")

    monkeypatch.setattr(engine, "digamma_int", no_digamma)
    with pytest.raises(PrecisionError, match="past binary64"):
        eval_generic(SumSpec(0.5, w))


def test_generic_odd_w_at_the_factorial_limit_still_answers():
    spec = SumSpec(0.5, 341.0)
    assert abs(eval_generic(spec).value - direct_sum(spec).value) <= 1e-15


# ----------------------------------------------------------------------
# tail factor
# ----------------------------------------------------------------------


def test_tail_factor_leading_term():
    value, j_used, _ = tail_factor(0.7, 2, 1, Fixed(1))
    assert value == 1.0 + 0j
    assert j_used == 1


def test_tail_factor_least_term_windows():
    # reference least-term indices: j0 ~ pi^2 n^2/a - O(1)
    _, j_used, _ = tail_factor(1.0, 2, 1, OPTIMAL)
    assert 5 <= j_used - 1 <= 9
    _, j_used, _ = tail_factor(0.5, 2, 1, OPTIMAL)
    assert 15 <= j_used - 1 <= 19


POLICIES = [OPTIMAL, Fixed(1), Fixed(4)]


@pytest.mark.parametrize("policy", POLICIES, ids=repr)
@pytest.mark.parametrize("a,m", [(0.25, 1), (0.5, 2), (1.0, 2), (5.0, 3)])
def test_tail_factor_keeps_leading_term(policy, a, m):
    log = TermLog()
    value, j_used, first_omitted = tail_factor(a, m, 1, policy, log=log)
    logged = log.series("j[n=1]")
    assert j_used >= 1
    assert logged[0] == (0, 1.0)
    # the value is the partial sum of the first j_used terms, and the
    # log ends with the first omitted one
    assert value == tail_factor(a, m, 1, Fixed(j_used))[0]
    assert logged[-1] == (j_used, first_omitted)
    if policy == Fixed(1):
        assert (value, j_used) == (1.0 + 0j, 1)


def test_tail_factor_partial_sum_matches_coefficients():
    a, m, n = 0.8, 2, 1
    value, _, _ = tail_factor(a, m, n, Fixed(4))
    x = -a / (math.pi**2 * n * n)
    # c_j = (m)_j (m+1/2)_j / j! from its definition
    brute = sum(_pochhammer(m, j) * _pochhammer(m + 0.5, j) / math.factorial(j) * x**j for j in range(4))
    assert value == pytest.approx(brute, rel=1e-14)


BOUND_MODULI = [1e-3, 0.013, 0.1, 1.0, 5.0, 20.0]
BOUND_ARGS = [0.0, 0.8, -0.8, 1.5, -1.5]


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("m", range(1, 9))
def test_tail_factor_optimal_is_bounded(m, n):
    # eval_even skips a dual term by this bound: under OptimalFirstMin
    # every kept term is at most 1 and the least term comes by
    # j <= pi^2 n^2 / |a|
    for modulus in BOUND_MODULI:
        for arg in BOUND_ARGS:
            value, _, _ = tail_factor(cmath.rect(modulus, arg), m, n, OPTIMAL)
            assert abs(value) <= 1.0 + math.pi**2 * n * n / modulus


def test_tail_factor_optimal_bound_holds_at_the_cap(monkeypatch):
    # the terms underflow long before the scan reaches _J_CAP unaided,
    # so the cap is lowered to stop a scan that is still descending
    a, m, n = 1e-3, 1, 1
    assert tail_factor(a, m, n, OPTIMAL)[1] > 100
    monkeypatch.setattr(engine, "_J_CAP", 100)
    value, j_used, _ = tail_factor(a, m, n, OPTIMAL)
    assert j_used == 100
    assert abs(value) <= 1.0 + math.pi**2 * n * n / a


def test_tail_factor_domain():
    with pytest.raises(DomainError):
        tail_factor(-0.5, 2, 1)
    with pytest.raises(DomainError):
        tail_factor(0.5, 2, 0)
    for a in (math.inf, complex(math.inf, -0.0), complex(1.0, math.nan), complex(1.0, math.inf)):
        with pytest.raises(DomainError, match="finite"):
            tail_factor(a, 2, 1)


# ----------------------------------------------------------------------
# least-term predictor
# ----------------------------------------------------------------------


def test_reference_predictor_w4():
    # the least-term index of the first w = 4 tail factor tracks the
    # reference predictor pi^2 / a - 5/2
    for a in (0.25, 1.0):
        _, j_used, _ = tail_factor(a, 2, 1)
        assert abs((j_used - 1) - (math.pi**2 / a - 2.5)) <= 2


# ----------------------------------------------------------------------
# summation
# ----------------------------------------------------------------------


def test_fsum_keeps_each_component_through_cancellation():
    # a plain left-to-right sum gives 0
    assert engine._complex_fsum([1e16 + 1e16j, 1.0 + 1.0j, -1e16 - 1e16j]) == 1.0 + 1.0j


def test_truncate_start_value_survives_larger_terms(monkeypatch):
    # the start value, the head, is the part a plain sum loses when the
    # larger term comes in; the third term is held back by Fixed(2).  At
    # a = 1 the k-sum's terms are row[0], row[1] and row[2] / 2, so this
    # row gives the terms big, -big and 5 + 5j.
    big = 1e16 - 1e16j
    row = (big, -big, 10.0 + 10.0j)
    e = SimpleNamespace(skip=None, tip=(row, 0.0))
    log = TermLog()
    value, added, last, abs_kept = engine._k_sum(1.0 + 0j, e, Fixed(2), 1.0 - 1.0j, log)
    assert (added, last) == (2, abs(5.0 + 5.0j))
    # sum|kept|, added left to right
    assert abs_kept == abs(1.0 - 1.0j) + abs(big) + abs(-big)
    assert log.series("k") == [(0, abs(big)), (1, abs(big)), (2, abs(5.0 + 5.0j))]
    # the fsum of the kept terms 1 - 1j, big and -big
    assert value == engine._complex_fsum([1.0 - 1.0j, big, -big]) == 1.0 - 1.0j


def test_fsum_refuses_a_sum_past_binary64():
    with pytest.raises(PrecisionError):
        engine._complex_fsum([1e308 + 0j, 1e308 + 0j])
    with pytest.raises(PrecisionError):
        engine._complex_fsum([complex(math.inf, 0.0), complex(-math.inf, 0.0)])
    for bad in (math.inf, math.nan):
        with pytest.raises(PrecisionError):
            engine._complex_fsum([1.0 + 0j, complex(0.0, bad)])


# ----------------------------------------------------------------------
# series loops against a generator-driven reference
# ----------------------------------------------------------------------


def _reference_truncate(terms, policy, cap, kept, lead=None, rel_floor=0.0):
    # one (term, magnitude) pair per step from a generator into one
    # truncation function: the form the engine's plain loops replaced,
    # kept here as their reference
    least_rule = True
    if isinstance(policy, Fixed):
        cap, least_rule, rel_floor = min(policy.count, cap), False, 0.0
    added, running, held = 0, sum(kept), lead
    held_mag = 0.0 if lead is None else abs(lead)
    for term, mag in terms:
        if held is not None:
            if least_rule and mag >= held_mag:
                return added, held, mag
            kept.append(held)
            running += held
            added += 1
        held, held_mag = term, mag
        if added == cap or (rel_floor and mag < rel_floor * abs(running)):
            return added, None, mag


def _reference_generic(spec, policy):
    a, w = spec.a, spec.w
    e = engine._exponent(w)
    log = TermLog()

    def terms():
        apow, k = 1.0 + 0j, 0
        while True:
            if k != e.skip:
                term = e.upto(k)[k] * apow
                log.log("k", k, abs(term))
                yield term, abs(term)
            k += 1
            apow *= a / k

    kept = [singular_term(spec)]
    added, least, last = _reference_truncate(terms(), policy, engine._K_CAP, kept, rel_floor=engine._REL_FLOOR)
    abs_kept = 0.0
    for term in kept:
        abs_kept += abs(term)  # left to right, as the engine adds
    rounding = engine._ROUNDING_C * sys.float_info.epsilon * abs_kept
    return engine._complex_fsum(kept), {"k": added}, (last if least is None else abs(least)) + rounding, log.entries


def _reference_tail(a, m, n, policy):
    log = TermLog()
    name = f"j[n={n}]"
    log.log(name, 0, 1.0)

    def terms():
        x, t, j = -a / (engine._PI2 * n * n), 1.0 + 0j, 0
        while True:
            t = t * ((m + j) * (m + 0.5 + j) / (j + 1.0)) * x
            j += 1
            log.log(name, j, abs(t))
            yield t, abs(t)

    kept = []
    added, least, first_omitted = _reference_truncate(terms(), policy, engine._J_CAP, kept, lead=1.0 + 0j)
    if least is not None:
        kept.append(least)
        added += 1
    return engine._complex_fsum(kept), added, first_omitted, log.entries


LOOP_POLICIES = [OPTIMAL, Fixed(1), Fixed(3), Fixed(8)]


def test_series_loops_match_the_generator_reference_bit_for_bit():
    # complex a; non-integer, odd and near-odd w
    rng = random.Random(20261018)
    for i in range(60):
        modulus = math.exp(rng.uniform(math.log(1e-3), math.log(20.0)))
        a = cmath.rect(modulus, 0.0 if i % 3 == 0 else rng.uniform(-1.5, 1.5))
        odd = 2 * rng.randrange(0, 4) + 1
        w = rng.choice((rng.uniform(0.05, 7.95), float(odd), odd + rng.uniform(-0.05, 0.05)))
        m, n = rng.randrange(1, 5), rng.randrange(1, 4)
        for policy in LOOP_POLICIES:
            if engine.classify_exponent(w)[0] != engine.EVEN:
                ev = eval_generic(SumSpec(a, w), policy, log=TermLog())
                got = (ev.value, ev.terms_used, ev.err_estimate, ev.term_log.entries)
                assert repr(got) == repr(_reference_generic(SumSpec(a, w), policy)), (a, w, policy)
            log = TermLog()
            value, j_used, first_omitted = tail_factor(a, m, n, policy, log=log)
            got = (value, j_used, first_omitted, log.entries)
            assert repr(got) == repr(_reference_tail(a, m, n, policy)), (a, m, n, policy)


@pytest.mark.parametrize("policy", [OPTIMAL, Fixed(3)], ids=repr)
def test_tail_factor_on_the_real_axis_is_the_complex_loop_bit_for_bit(policy):
    rng = random.Random(20261019)
    cases = [(row.a, 2, n) for row in W4_ROWS for n in (1, 2, 3)]
    for _ in range(150):
        x = math.exp(rng.uniform(math.log(1e-3), math.log(20.0)))
        cases.append((x, rng.randrange(1, 9), rng.randrange(1, 4)))
    for x, m, n in cases:
        # complex arithmetic throughout, as tail_factor ran before the
        # real axis had its float path
        expected = repr(_reference_tail(complex(x), m, n, policy))
        # a float, x + 0j and x - 0j
        for a in (x, complex(x, 0.0), complex(x, -0.0)):
            log = TermLog()
            value, j_used, first_omitted = tail_factor(a, m, n, policy, log=log)
            assert repr((value, j_used, first_omitted, log.entries)) == expected, (a, m, n)
            assert math.copysign(1.0, value.imag) == 1.0


@pytest.mark.parametrize("policy", [OPTIMAL, Fixed(3)], ids=repr)
def test_generic_on_the_real_axis_is_the_complex_loop_bit_for_bit(policy):
    rng = random.Random(20261021)
    cases = []
    for _ in range(150):
        x = math.exp(rng.uniform(math.log(1e-3), math.log(20.0)))
        odd = 2 * rng.randrange(0, 4) + 1
        w = rng.choice((rng.uniform(0.05, 7.95), float(odd), odd + rng.uniform(-0.05, 0.05)))
        if engine.classify_exponent(w)[0] != engine.EVEN:
            cases.append((x, w))
    for x, w in cases:
        # complex arithmetic throughout, as the k-sum ran before the real
        # axis had its float path
        value, terms_used, err_estimate, entries = _reference_generic(SumSpec(complex(x), w), policy)
        # a float, x + 0j and x - 0j
        for a in (x, complex(x, 0.0), complex(x, -0.0)):
            for log in (TermLog(), None):
                ev = eval_generic(SumSpec(a, w), policy, log=log)
                got = (ev.value, ev.terms_used, ev.err_estimate, ev.term_log.entries)
                assert repr(got) == repr((value, terms_used, err_estimate, [] if log is None else entries)), (a, w)
                assert math.copysign(1.0, ev.value.imag) == 1.0
    # w = 2m + 1 with m > 100: the head's (-a)^m is taken in polar form
    # and has an imaginary part on the real axis, so the complex loop runs
    spec = SumSpec(0.5, 203.0)
    ev = eval_generic(spec, policy)
    assert ev.value.imag != 0.0
    assert repr((ev.value, ev.terms_used, ev.err_estimate)) == repr(_reference_generic(spec, policy)[:3])


def _reference_even(a, m, policy, n_max, log):
    # the even transformation in complex arithmetic throughout, as it
    # ran before the real axis had its float path; returns what
    # _even_transform does, or the type and message of its refusal
    a = complex(a)
    try:
        e = engine._exponent(2.0 * m)
        parts = [e.const * a ** (m - 0.5)]
        row = e.upto(m)
        apow, k = 1.0 + 0j, 0
        while True:
            parts.append(row[k] * apow)
            if k == m:
                break
            k += 1
            apow *= a / k
        if log is not None:
            log.extend("k", range(m + 1), [abs(t) for t in parts[1:]])
        running = 0
        for t in parts:
            running += t
        pref = (a / math.pi) ** (2 * m - 0.5)
        if m & 1:
            pref = -pref
        abs_pref, re_inv, abs_a = abs(pref), (1.0 / a).real, abs(a)
        auto = n_max is None
        ncap = engine._N_CAP if auto else min(n_max, engine._N_CAP)
        skip_rel = engine._REL_FLOOR if auto and isinstance(policy, OptimalFirstMin) else 0.0
        n_used, fo_j_n1, j_used_n1, skipped = 0, 0.0, 0, 0.0
        for n in range(1, ncap + 1):
            nn2 = engine._PI2 * n * n
            w_mag = math.exp(-nn2 * re_inv)
            raw = w_mag / n ** (2 * m)
            size = abs(running)
            last = auto and raw < engine._REL_FLOOR * size
            bound = abs_pref * raw * (1.0 + nn2 / abs_a) if w_mag else 0.0
            if w_mag and bound >= skip_rel * size:
                ups, j_used, fo = tail_factor(a, m, n, policy, log=log) if m else (1.0, 0, 0.0)
                term = pref * ups * cmath.exp(-nn2 / a) / n ** (2 * m)
            else:
                term, j_used, fo = 0j, 0, 0.0
                skipped += bound
            if log is not None:
                log.log("n", n, abs(term))
            parts.append(term)
            running += term
            n_used = n
            if n == 1:
                fo_j_n1, j_used_n1 = fo, j_used
            if last or not w_mag:
                break
        expo1 = -engine._PI2 * re_inv
        fo_tail_j = abs_pref * fo_j_n1 * (math.exp(expo1) if expo1 > -745.0 else 0.0)
        nn = n_used + 1
        expon = -engine._PI2 * nn * nn * re_inv
        fo_tail_n = abs_pref * (math.exp(expon) if expon > -745.0 else 0.0) / nn ** (2 * m)
        if fo_tail_n:
            fo_tail_n /= -math.expm1(-engine._PI2 * re_inv * (2 * nn + 1))
        rounding = (3 * m + 4) * sys.float_info.epsilon * max(map(abs, parts))
        err_estimate = fo_tail_j + fo_tail_n + skipped + rounding
        if not math.isfinite(err_estimate):
            raise OverflowError
        value = engine._complex_fsum(parts)
        return repr((value, {"k": m + 1, "n": n_used, "j": j_used_n1}, err_estimate))
    except (OverflowError, ZeroDivisionError):
        return f"PrecisionError: the transformation at a = {a}, w = {2 * m} overflows binary64"
    except Exception as exc:  # a refusal is an outcome
        return f"{type(exc).__name__}: {exc}"


def _even_outcome(a, m, policy, n_max, log):
    # m >= 1 through eval_even, m = 0 through evaluate's pj route
    try:
        if m:
            ev = eval_even(SumSpec(a, 2.0 * m), m, policy, n_max, log=log)
        else:
            ev = evaluate(SumSpec(a, 0.0), MethodChoice.CLASSICAL_PJ, policy, n_max, log=log)
    except Exception as exc:  # a refusal is an outcome
        return f"{type(exc).__name__}: {exc}", None
    return repr((ev.value, ev.terms_used, ev.err_estimate)), ev


@pytest.mark.parametrize("policy", [OPTIMAL, Fixed(3)], ids=repr)
def test_even_and_pj_on_the_real_axis_are_the_complex_loop_bit_for_bit(policy):
    rng = random.Random(20261022)
    xs = [row.a for row in W4_ROWS]
    xs += [math.exp(rng.uniform(math.log(1e-3), math.log(20.0))) for _ in range(150)]
    cases = [(x, m, n_max) for x in xs for m in range(9) for n_max in (None, 1, 3)]
    # refused where (a/pi)^(2m - 1/2) overflows, or a/pi underflows to 0
    # at m = 0; the other m answer
    cases += [(x, m, None) for x in (1e200, 5e-324) for m in range(9)]
    # pref * tail_factor overflows under Fixed(3) at m = 170: the complex
    # term is NaN, not inf, so n_max None goes on to the n whose n^(2m)
    # overflows and refuses with that message
    big = 24.938364202688767
    cases += [(big, 170, None), (big, 150, None)]
    refusals = set()
    for x, m, n_max in cases:
        # a float, x + 0j and x - 0j, each against the complex loop at the
        # same a, whose refusals print a with the sign of its zero
        for a in (x, complex(x, 0.0), complex(x, -0.0)):
            ref_log = TermLog()
            expected = _reference_even(a, m, policy, n_max, ref_log)
            for log in (TermLog(), None):
                got, ev = _even_outcome(a, m, policy, n_max, log)
                assert got == expected, (a, m, n_max)
                if ev is None:
                    refusals.add((x, m))
                    continue
                assert ev.term_log.entries == ([] if log is None else ref_log.entries), (a, m, n_max)
                assert math.copysign(1.0, ev.value.imag) == 1.0
    # at 1e200, m = 1 and at big, m = 170 the parts' sum overflows under
    # Fixed(3), and under OPTIMAL err_estimate does
    expected_refusals = {(1e200, m) for m in range(1, 9)} | {(5e-324, 0), (big, 170)}
    assert refusals == expected_refusals


# ----------------------------------------------------------------------
# dispatch
# ----------------------------------------------------------------------


def test_dispatch_even_matches_eval_even():
    spec = SumSpec(1.0, 4.0)
    assert evaluate(spec, MethodChoice.EVEN_TRANSFORM).value == eval_even(spec, 2).value


def test_dispatch_generic_matches_eval_generic():
    spec = SumSpec(1.0, 1.5)
    assert evaluate(spec, MethodChoice.GENERIC).value == eval_generic(spec).value


def test_dispatch_guards():
    with pytest.raises(DomainError, match=r"^w = 4\.0 is an even integer; use the even-exponent transformation$"):
        evaluate(SumSpec(1.0, 4.0), MethodChoice.GENERIC)
    with pytest.raises(DomainError, match=r"^EvenTransform requires w = 2m for integer m >= 1, got w = 1\.5$"):
        evaluate(SumSpec(1.0, 1.5), MethodChoice.EVEN_TRANSFORM)
    with pytest.raises(DomainError, match=r"^ClassicalPJ requires w = 0, got w = 1\.0$"):
        evaluate(SumSpec(1.0, 1.0), MethodChoice.CLASSICAL_PJ)
    # a method is a MethodChoice, not its value
    with pytest.raises(DomainError, match="unknown method 'generic'"):
        evaluate(SumSpec(1.0, 1.5), "generic")


POLE_OFFSETS = (0.0, 1e-13, -1e-13, 1e-12, -1e-12, 1e-11, -1e-11, 1e-9, -1e-9, 2e-9, -2e-9)


@pytest.mark.parametrize("n", range(10))
def test_pole_error_cannot_reach_evaluate(n):
    # at and around every integer w, where gamma_real and zeta_real have
    # their poles, each route answers or refuses with one of the package's
    # errors, and never with PoleError, which is why it is not exported
    outcomes = Counter()
    for w in (n + d for d in POLE_OFFSETS if n + d >= 0.0):
        for a in (1e-3, 0.3 + 0.2j, 2.0):
            for method in MethodChoice:
                for policy in (OPTIMAL, Fixed(3)):
                    try:
                        evaluate(SumSpec(a, w), method, policy)
                        outcomes["answered"] += 1
                    except ThetaSumError as exc:
                        assert not isinstance(exc, PoleError), (a, w, method, policy, exc)
                        outcomes[type(exc).__name__] += 1
    assert outcomes["answered"] and outcomes["DomainError"], outcomes


def test_dispatch_direct_wraps_oracle():
    spec = SumSpec(0.8, 2.5)
    ev = evaluate(spec, MethodChoice.DIRECT)
    ref = direct_sum(spec)
    assert ev.value == ref.value
    assert ev.terms_used["n_direct"] == ref.n_terms
    assert ev.err_estimate == ref.noise_floor()


def test_dispatch_classical_matches_direct():
    spec = SumSpec(0.7, 0.0)
    ev = evaluate(spec, MethodChoice.CLASSICAL_PJ)
    assert abs(ev.value - direct_sum(spec).value) <= 1e-13
    assert ev.err_estimate <= 1e-15


def test_dispatch_classical_honours_n_max():
    spec = SumSpec(0.7, 0.0)
    ev = evaluate(spec, MethodChoice.CLASSICAL_PJ, n_max=3)
    assert ev.terms_used == {"j": 0, "k": 1, "n": 3}
    root = math.sqrt(math.pi / 0.7)
    literal = 0.5 * root - 0.5 + root * math.fsum(math.exp(-math.pi**2 * n * n / 0.7) for n in (1, 2, 3))
    assert ev.value == pytest.approx(literal, rel=1e-15, abs=0.0)
    assert evaluate(spec, MethodChoice.CLASSICAL_PJ, n_max=None).terms_used == {"j": 0, "k": 1, "n": 2}
    for bad in (0, 1.0, "auto"):
        with pytest.raises(DomainError):
            evaluate(spec, MethodChoice.CLASSICAL_PJ, n_max=bad)


def test_dispatch_classical_stops_at_an_underflowed_term():
    # at a = 0.7 every dual term past n ~ 8 underflows to exactly 0
    spec = SumSpec(0.7, 0.0)
    long = evaluate(spec, MethodChoice.CLASSICAL_PJ, n_max=200000)
    assert repr(long.value) == repr(evaluate(spec, MethodChoice.CLASSICAL_PJ, n_max=12).value)
    assert long.terms_used["n"] < 50
    assert evaluate(spec, MethodChoice.CLASSICAL_PJ, n_max=3).terms_used == {"j": 0, "k": 1, "n": 3}


def test_dispatch_classical_reports_its_method():
    ev = evaluate(SumSpec(0.7 + 0.4j, 0.0), MethodChoice.CLASSICAL_PJ)
    assert ev.method is MethodChoice.CLASSICAL_PJ


# ----------------------------------------------------------------------
# term logs on request
# ----------------------------------------------------------------------

G, E, P, D = MethodChoice.GENERIC, MethodChoice.EVEN_TRANSFORM, MethodChoice.CLASSICAL_PJ, MethodChoice.DIRECT

# every route, with complex a, odd and near-odd w, dual terms whose
# factor is computed, skipped or underflowed, and one refusal of each kind
LOG_GRID = [
    *((SumSpec(a, w), G) for a in (0.05, 0.3 + 0.2j, 2.0) for w in (0.5, 1.5, 3.0, 2.98)),
    *((SumSpec(a, w), E) for a in (0.01, 0.25, 0.5 + 0.3j, 1.0, 2.0) for w in (2.0, 4.0, 6.0)),
    *((SumSpec(a, 0.0), P) for a in (0.05, 0.7 + 0.4j, 3.0)),
    *((SumSpec(a, w), D) for a, w in ((0.8, 2.5), (0.3 + 0.2j, 4.0), (1e-30, 1.5))),
    (SumSpec(1.0, 4.0), G),  # DomainError: an even w on the generic route
    (SumSpec(1.0, 1.5), E),  # DomainError: a w that is not 2m on the even route
    (SumSpec(1e3, 700.5), G),  # PrecisionError: overflow
    (SumSpec(0.1, 343.0), G),  # PrecisionError: m! past binary64
    (SumSpec(0.5, 1100.0), E),  # PrecisionError: 2^(2m)
    (SumSpec(100.0, 400.0), E),  # PrecisionError: overflow
]
LOG_POLICIES = [OPTIMAL, Fixed(3)]


def _log_grid_outcomes(log_factory):
    # repr of (value, err_estimate, terms_used, warning, method) or of the refusal
    # at each grid point, each policy and n_max in (None, 3)
    out = []
    for spec, method in LOG_GRID:
        for policy in LOG_POLICIES:
            for n_max in (None, 3):
                try:
                    ev = evaluate(spec, method, policy, n_max, log=log_factory())
                    got = (ev.value, ev.err_estimate, ev.terms_used, ev.near_odd_warning, ev.method)
                except Exception as exc:  # noqa: BLE001 - a refusal is an outcome
                    got = (type(exc).__name__, str(exc))
                out.append(repr((spec, method, policy, n_max, got)))
    return out


def test_no_log_means_no_log_work(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a TermLog write on the path without a log")

    made = []
    init = TermLog.__init__

    def counting_init(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(TermLog, "__init__", counting_init)
    monkeypatch.setattr(TermLog, "extend", refuse)
    monkeypatch.setattr(TermLog, "log", refuse)
    outcomes = _log_grid_outcomes(lambda: None)
    assert not any("AssertionError" in line for line in outcomes)
    # each refusal of the grid is among the outcomes
    refusals = (
        repr(("DomainError", "w = 4.0 is an even integer; use the even-exponent transformation")),
        repr(("DomainError", "EvenTransform requires w = 2m for integer m >= 1, got w = 1.5")),
        "('PrecisionError', ",
        "('ConvergenceError', ",
    )
    for refusal in refusals:
        assert any(refusal in line for line in outcomes), refusal
    # no log is made either: every route hands back the one shared empty log
    for w, method in ((4.0, E), (1.5, G), (0.0, P), (1.5, D)):
        assert evaluate(SumSpec(0.5, w), method).term_log is EMPTY_LOG, method
    assert eval_even(SumSpec(0.5, 4.0), 2).term_log is EMPTY_LOG
    assert eval_generic(SumSpec(0.5, 1.5)).term_log is EMPTY_LOG
    assert made == [] and EMPTY_LOG.entries == []


def test_the_shared_empty_log_is_read_only_and_equals_a_new_one():
    assert isinstance(EMPTY_LOG, TermLog) and EMPTY_LOG.entries == []
    for write in (lambda: EMPTY_LOG.log("k", 0, 1.0), lambda: EMPTY_LOG.extend("k", range(2), [1.0, 0.5])):
        with pytest.raises(TypeError, match=r"pass log=TermLog\(\)"):
            write()
    assert EMPTY_LOG.entries == []
    # it compares and prints as TermLog(), either side of ==
    assert EMPTY_LOG == TermLog() and TermLog() == EMPTY_LOG and not EMPTY_LOG != TermLog()
    assert EMPTY_LOG != _log3() and _log3() != EMPTY_LOG
    assert repr(EMPTY_LOG) == "TermLog(entries=[])"
    with pytest.raises(TypeError):
        hash(EMPTY_LOG)
    # so an unlogged evaluation equals one built by hand with TermLog()
    for w, method in ((1.5, G), (2.98, G), (4.0, E), (0.0, P), (2.5, D)):
        ev = evaluate(SumSpec(0.3, w), method)
        fields = (ev.value, ev.method, ev.terms_used, ev.err_estimate)
        by_hand = Evaluation(*fields, TermLog(), ev.near_odd_warning)
        assert ev == by_hand and by_hand == ev and repr(ev) == repr(by_hand), method
    # a logged evaluation holds its own log, which stays writable
    log = TermLog()
    assert evaluate(SumSpec(0.05, 1.5), G, log=log).term_log is log and log.entries


def test_a_log_changes_no_value_estimate_count_or_refusal():
    logs = []

    def fresh():
        logs.append(TermLog())
        return logs[-1]

    assert _log_grid_outcomes(fresh) == _log_grid_outcomes(lambda: None)
    # the logged runs wrote their terms, so the comparison is not vacuous
    assert sum(bool(log.entries) for log in logs) > len(logs) // 2
    assert any(name.startswith("j[n=") for log in logs for name, _, _ in log.entries)
    log = TermLog()
    assert eval_generic(SumSpec(0.05, 1.5), log=log).term_log is log


def test_j0_of_n1_is_terms_used_j_less_one():
    # table1 and sweep read j0 of n = 1 from terms_used, eval from the log
    from thetasum.cli import _tail_j0

    seen = 0
    for spec, method in LOG_GRID:
        for policy in LOG_POLICIES:
            for n_max in (None, 1, 3):
                try:
                    ev = evaluate(spec, method, policy, n_max, log=TermLog())
                except Exception:  # noqa: BLE001 - refusals are covered above
                    continue
                j = ev.terms_used.get("j")
                logged = _tail_j0(ev).get("j[n=1]")
                assert logged == (j - 1 if j else None), (spec, method, policy, n_max)
                seen += logged is not None
    assert seen > 20


@pytest.mark.parametrize("a", [1e-310, 5e-324])
@pytest.mark.parametrize("w", [0.0, 2.0, 4.0])
def test_subnormal_a_refuses_or_gives_a_finite_estimate(a, w):
    # the parts overflow (a/pi underflows to 0 at m = 0), or a zero
    # dual weight's bound would be 0 * inf
    method = MethodChoice.CLASSICAL_PJ if w == 0.0 else MethodChoice.EVEN_TRANSFORM
    try:
        ev = evaluate(SumSpec(a, w), method)
    except PrecisionError:
        return
    assert math.isfinite(ev.err_estimate)


# ----------------------------------------------------------------------
# remainder scaling
# ----------------------------------------------------------------------


def test_remainder_slope_tracks_first_omitted_term():
    # oracle-derived regression: remainder ~ a^N
    slope = remainder_slope(1.3, 2, GRID)
    assert slope == pytest.approx(2.0057, abs=0.02)
    slope = remainder_slope(3.0, 3, GRID)
    assert slope == pytest.approx(3.0050, abs=0.02)


def test_remainder_slope_preconditions():
    with pytest.raises(DomainError, match=r"^remainder_slope requires w not an even integer$"):
        remainder_slope(4.0, 3, GRID)
    with pytest.raises(DomainError):
        remainder_slope(3.0, 2, GRID)  # needs N > w/2 + 1/2 = 2
    with pytest.raises(DomainError):
        remainder_slope(1.3, 2, [0.1, 0.05, 0.025])  # too few points
    with pytest.raises(DomainError):
        remainder_slope(1.3, 2, [0.3, 0.15, 0.075, 0.0375])  # out of range
    with pytest.raises(DomainError):
        remainder_slope(1.3, 2, [0.1, 0.05, 0.03, 0.0125])  # not geometric


@pytest.mark.parametrize("w", [math.nan, math.inf, -math.inf])
def test_remainder_slope_refuses_non_finite_w(w):
    with pytest.raises(DomainError, match="finite"):
        remainder_slope(w, 2, GRID)


# ----------------------------------------------------------------------
# per-exponent memo
# ----------------------------------------------------------------------

MEMO_W = (0.3, 1.5, 2.98, 3.0, 3.03, 4.0, 5.25, 6.0, 7.0)
MEMO_A = [cmath.rect(r, t) for r in (0.003, 0.03, 0.3, 1.0) for t in (0.0, 0.7, -1.2)]
MEMO_POLICIES = (OPTIMAL, Fixed(3))


def _route(spec, policy=OPTIMAL):
    # the even transformation at w = 2m, the generic expansion elsewhere,
    # each with a log, so that repr(Evaluation) covers its entries
    if spec.w % 2.0 == 0.0:
        return evaluate(spec, MethodChoice.EVEN_TRANSFORM, policy, log=TermLog())
    return eval_generic(spec, policy, log=TermLog())


def _memo_grid():
    return [
        (w, a, _route(SumSpec(a, w), policy))
        for w in MEMO_W
        for a in MEMO_A
        for policy in MEMO_POLICIES
    ]


def test_memo_cold_and_warm_results_are_identical(clear_memos):
    # repr(Evaluation) covers value, terms_used, err_estimate and every
    # TermLog entry
    clear_memos()
    cold = [repr(ev) for _, _, ev in _memo_grid()]
    warm = _memo_grid()
    assert [repr(ev) for _, _, ev in warm] == cold
    for w, a, ev in warm:
        for k, mag in ev.term_log.series("k"):
            want = abs(zeta_real(w - 2 * k) * a**k / math.factorial(k))
            assert mag == pytest.approx(want, rel=1e-12, abs=0.0), (w, a, k)


def test_table1_path_calls_through_the_engine_names(monkeypatch):
    # a profiler that rebinds engine.tail_factor and engine.direct_sum sees
    # each call of the Table-1 path: one tail factor per row at n_max = 1,
    # one direct sum per direct evaluation
    counts = dict.fromkeys(("tail_factor", "direct_sum"), 0)
    for name in counts:

        def counting(*args, _fn=getattr(engine, name), _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(engine, name, counting)
    for row in W4_ROWS:
        spec = SumSpec(row.a, 4.0)
        counts.update(tail_factor=0, direct_sum=0)
        eval_even(spec, 2, OPTIMAL, n_max=1)
        assert counts == {"tail_factor": 1, "direct_sum": 0}, row
        counts.update(tail_factor=0, direct_sum=0)
        evaluate(spec, MethodChoice.DIRECT)
        assert counts == {"tail_factor": 0, "direct_sum": 1}, row


def test_generic_path_calls_through_the_engine_names(monkeypatch):
    # a profiler that rebinds engine.singular_term and engine.eval_generic
    # sees each layer of the generic route: one call of each per evaluation
    counts = dict.fromkeys(("singular_term", "eval_generic"), 0)
    for name in counts:

        def counting(*args, _fn=getattr(engine, name), _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(engine, name, counting)
    for spec in (SumSpec(0.05, 1.5), SumSpec(0.3 + 0.2j, 3.0), SumSpec(0.1, 2.98), SumSpec(1.0, 0.5)):
        counts.update(singular_term=0, eval_generic=0)
        evaluate(spec, MethodChoice.GENERIC)
        assert counts == {"singular_term": 1, "eval_generic": 1}, spec


def test_memo_misses_go_through_engine_names(monkeypatch, clear_memos):
    clear_memos()
    zetas, gammas = [], []

    def counting_zeta(s):
        zetas.append(s)
        return zeta_real(s)

    def counting_gamma(x):
        gammas.append(x)
        return gamma_real(x)

    monkeypatch.setattr(engine, "zeta_real", counting_zeta)
    monkeypatch.setattr(engine, "gamma_real", counting_gamma)
    w = 1.25
    first = eval_generic(SumSpec(0.1, w), log=TermLog())
    # zeta_real makes the row entries with w - 2k >= 0, here k = 0; from
    # k0 = 1 on the row needs one Gamma(2 k0 + 1 - w), after the
    # singular term's Gamma((1 - w)/2)
    assert len(first.term_log.series("k")) > 2
    assert zetas == [w]
    assert gammas == [0.5 - 0.5 * w, 3.0 - w]
    # a smaller |a| needs no more k-terms: every coefficient is a hit
    second = eval_generic(SumSpec(complex(0.02, 0.005), w))
    assert second.terms_used["k"] <= first.terms_used["k"]
    assert len(zetas) == 1
    assert len(gammas) == 2
    # one memo holds everything that depends on w alone
    memos = [value for value in vars(engine).values() if hasattr(value, "cache_info")]
    assert memos == [engine._exponent]
    maxsize = engine._exponent.cache_info().maxsize
    assert isinstance(maxsize, int) and maxsize > 0


def test_a_new_exponent_is_classified_once(monkeypatch, clear_memos):
    clear_memos()
    classify = engine.classify_exponent
    classified = []

    def counting_classify(w):
        classified.append(w)
        return classify(w)

    monkeypatch.setattr(engine, "classify_exponent", counting_classify)
    for w in (2.75, 3.0, 3.02):
        eval_generic(SumSpec(0.1, w), log=TermLog())
        eval_generic(SumSpec(0.02 + 0.01j, w), Fixed(3))
    assert classified == [2.75, 3.0, 3.02]


def test_even_head_constant_is_the_exact_recurrence():
    # Gamma(1/2 - m) / 2 by the downward recurrence from sqrt(pi), w = 0
    # (pj) included, where classify_exponent gives no class; gamma_real
    # gives sqrt(pi) at 1/2 but differs from the recurrence at most m
    # below 200
    denom = 1.0
    for m in range(200):
        if m:
            denom *= 0.5 - m
        assert engine._exponent(2.0 * m).const == 0.5 * (math.sqrt(math.pi) / denom), m


@pytest.mark.parametrize("w", [1024.0, 1e10])
def test_even_record_past_the_even_limit_costs_no_loop(w):
    # eval_even refuses 2m >= 1024 before reading the record, and a loop
    # of m steps at w = 1e10 would take minutes
    start = time.perf_counter()
    e = engine._Exponent(w)
    message = f"w = {w} is an even integer; use the even-exponent transformation"
    with pytest.raises(DomainError, match=re.escape(message)):
        eval_generic(SumSpec(0.5, w))
    assert time.perf_counter() - start < 1.0
    assert (e.kind, e.m) == (engine.EVEN, round(w / 2))
    assert math.isnan(e.const)


def test_memo_is_thread_safe(clear_memos):
    specs = [
        SumSpec(cmath.rect(0.002 * 1.5 ** (i % 12), 0.1 * (i % 9) - 0.4), MEMO_W[i % len(MEMO_W)])
        for i in range(200)
    ]

    def one(spec):
        return repr(_route(spec))

    clear_memos()
    sequential = [one(spec) for spec in specs]
    clear_memos()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(one, specs))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == sequential


@pytest.mark.parametrize("w", [1.25, 3.0, 5.99976, 17.3])
def test_row_grown_by_eight_threads_equals_the_sequential_row(w):
    sequential = engine._Exponent(w).upto(40)
    targets = list(range(41)) * 2
    rng = random.Random(7)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            for _ in range(20):
                row = engine._Exponent(w)  # cold, outside the memo
                rng.shuffle(targets)
                grown = list(pool.map(row.upto, targets, timeout=60))
                assert row.tip[0] == sequential
                for k, entries in zip(targets, grown):
                    assert len(entries) > k and entries == sequential[: len(entries)]
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("m", [1, 2, 8, 140])
def test_ratio_row_grown_by_eight_threads_equals_the_sequential_row(m):
    sequential = engine._Exponent(2.0 * m).ratios_upto(120)
    targets = list(range(1, 121)) * 2
    rng = random.Random(7)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            for _ in range(20):
                row = engine._Exponent(2.0 * m)  # cold, outside the memo
                rng.shuffle(targets)
                grown = list(pool.map(row.ratios_upto, targets, timeout=60))
                assert row.ratios == sequential
                for count, ratios in zip(targets, grown):
                    assert len(ratios) >= count and ratios == sequential[: len(ratios)]
    finally:
        sys.setswitchinterval(interval)


class _PublishedFirst:
    """A record's lock under which another grower has just published
    ``longer`` as the record's ``slot``: what a grower meets when it
    read the row before that one published."""

    def __init__(self, record, slot, longer):
        self.record, self.slot, self.longer = record, slot, longer

    def __enter__(self):
        setattr(self.record, self.slot, self.longer)

    def __exit__(self, *exc):
        return False


def test_a_stale_shorter_copy_never_replaces_a_longer_row():
    # the longer copy wins: the row stays as another grower published it
    longer = engine._Exponent(1.25).upto(12)
    stale = engine._Exponent(1.25)
    stale.upto(4)
    e = engine._Exponent(1.25)  # cold, outside the memo
    e.upto(12)
    tip = e.tip
    assert e.publish(list(stale.tip[0]), stale.tip[1]) == longer
    assert e.tip is tip
    # a grower that read the empty row and grew it to 5 entries
    e = engine._Exponent(1.25)
    e._lock = _PublishedFirst(e, "tip", tip)
    assert e.upto(4) == longer
    assert e.tip is tip
    # the same for the tail factor's ratios
    longer = engine._Exponent(4.0).ratios_upto(40)
    e = engine._Exponent(4.0)
    e._lock = _PublishedFirst(e, "ratios", longer)
    assert e.ratios_upto(10) == longer
    assert e.ratios is longer


def _per_term_tail(a, m, n, policy, log):
    # tail_factor as it ran with the term ratio worked out inside the
    # loop, kept here as the reference for the memoised ratio row
    a = complex(a)
    cap = min(policy.count, engine._J_CAP) if isinstance(policy, Fixed) else engine._J_CAP
    least_rule = not isinstance(policy, Fixed)
    if a.imag == 0.0:
        x, t = -a.real / (engine._PI2 * n * n), 1.0
    else:
        x, t = -a / (engine._PI2 * n * n), 1.0 + 0j
    mh = m + 0.5
    kept, mags, mag, j = [t], [1.0], 1.0, 0
    while True:
        held_mag = mag
        t = t * ((m + j) * (mh + j) / (j + 1.0)) * x
        j += 1
        mag = abs(t)
        mags.append(mag)
        if (least_rule and mag >= held_mag) or j == cap:
            break
        kept.append(t)
    if log is not None:
        log.extend(f"j[n={n}]", range(j + 1), mags)
    return engine._complex_fsum(kept), j, mag


def _tail_outcome(fn, a, m, n, policy, logged):
    log = TermLog() if logged else None
    try:
        got = fn(a, m, n, policy, log=log)
    except Exception as exc:  # a refusal is an outcome
        got = (type(exc).__name__, str(exc))
    return repr((got, None if log is None else log.entries))


RATIO_POLICIES = [OPTIMAL, Fixed(1), Fixed(3), Fixed(2000)]


def test_tail_factor_over_the_ratio_row_is_the_per_term_loop_bit_for_bit(clear_memos):
    # cold rows, grown from every length the calls leave behind
    clear_memos()
    rng = random.Random(20261020)
    for m in [*range(1, 9), 140, 511]:
        for n in range(1, 6):
            x = math.exp(rng.uniform(math.log(1e-3), math.log(20.0)))
            arg = rng.uniform(-1.5, 1.5)
            for a in (x, complex(x, -0.0), cmath.rect(x, arg), 5e-324, 1e200):
                for policy in RATIO_POLICIES:
                    for logged in (True, False):
                        got = _tail_outcome(tail_factor, a, m, n, policy, logged)
                        expected = _tail_outcome(_per_term_tail, a, m, n, policy, logged)
                        assert got == expected, (a, m, n, policy, logged)


@pytest.mark.parametrize("logged", [True, False])
def test_tail_factor_grows_the_row_when_the_stop_lies_past_it(monkeypatch, logged):
    # the first growth hands the loop 3 ratios, far short of the least
    # term at a = 0.1 (j0 = 96): the loop grows the row and goes on,
    # doubling from 16 up to the stop's bound pi^2/0.1 + 2
    record = engine._Exponent(4.0)  # cold, outside the memo
    grow = engine._Exponent.ratios_upto
    counts = []

    def short_first(self, count):
        counts.append(count)
        ratios = grow(self, count)
        return ratios[:3] if len(counts) == 1 else ratios

    monkeypatch.setattr(engine._Exponent, "ratios_upto", short_first)
    monkeypatch.setattr(engine, "_exponent", lambda w: record)
    got = _tail_outcome(tail_factor, 0.1, 2, 1, OPTIMAL, logged)
    assert counts == [16, 16, 32, 64, int(math.pi**2 / 0.1 + 2.0)] == [16, 16, 32, 64, 100]
    assert got == _tail_outcome(_per_term_tail, 0.1, 2, 1, OPTIMAL, logged)
    assert tail_factor(0.1, 2, 1)[1] - 1 == W4_ROWS[0].j0


def test_tail_factor_grows_the_row_only_to_the_length_a_call_needs(clear_memos):
    # a cold row doubles from 16 up to the stop's bound: j = 1/|x| + 2
    # with x = -a / (pi^2 n^2) under the least-term rule, 2 where x
    # underflows to 0 (a subnormal a); under Fixed it grows to the count
    clear_memos()
    tail_factor(0.5, 3, 2)
    assert len(engine._exponent(6.0).ratios) == int(1.0 / (0.5 / (math.pi**2 * 4)) + 2.0) == 80
    # the terms underflow, or reach their least, long before the bound
    # pi^2/a: the row stays within twice the length the call used
    for a, j_used in ((1e-300, 3), (1e-200, 3), (1e-100, 5), (1e-20, 18), (1e-3, 156)):
        clear_memos()
        assert tail_factor(a, 7, 1)[1] == j_used
        assert len(engine._exponent(14.0).ratios) <= 2 * max(j_used, 16)
    # a call that stops inside the row leaves it as it is
    tail_factor(5e-324, 3, 1)
    tail_factor(5.0, 3, 1, Fixed(80))
    assert len(engine._exponent(6.0).ratios) == 80
    for a in (5e-324, complex(5e-324, 5e-324)):
        clear_memos()
        assert tail_factor(a, 5, 1)[1] == 2
        assert len(engine._exponent(10.0).ratios) == 2
    tail_factor(1.0, 4, 1, Fixed(40))
    assert len(engine._exponent(8.0).ratios) == 40
    with pytest.raises(DomainError, match="2\\^53"):
        tail_factor(1.0, 2**53 + 1, 1)


def _reference_tail_factor(a, m, n, policy=OPTIMAL, *, log=None):
    # tail_factor's loop as it ran before the cap became the slice bound:
    # one test per term against the cap, the log's magnitudes collected
    # term by term inside the loop
    a = complex(a)
    if not (a.real > 0.0 and cmath.isfinite(a)):
        raise DomainError(f"tail_factor requires a finite a with Re(a) > 0, got a = {a}")
    engine._require_positive_int(m, "m")
    engine._require_positive_int(n, "n")
    if m > engine._M_EXACT:
        raise DomainError(f"tail_factor requires m <= 2^53, exact in binary64, got m = {m}")
    cap, least_rule, _ = engine._truncate(policy, engine._J_CAP)
    nn2 = engine._PI2 * n * n
    if a.imag == 0.0:
        x, t, total = -a.real / nn2, 1.0, engine._fsum
    else:
        x, t, total = -a / nn2, 1.0 + 0j, engine._complex_fsum
    e = engine._exponent(2.0 * m)
    ratios = e.ratios
    kept = [t]
    mags = None if log is None else [1.0]
    mag = 1.0
    j = 0
    while True:
        for ratio in ratios[j:]:
            held_mag = mag
            t = t * ratio * x
            j += 1
            mag = abs(t)
            if mags is not None:
                mags.append(mag)
            if (least_rule and mag >= held_mag) or j == cap:
                break
            kept.append(t)
        else:
            if least_rule:
                bound = 1.0 / abs(x) + 2.0 if x else 2.0
                size = min(max(2 * j, 16), bound) if j + 1 <= bound else 2 * j
            else:
                size = cap
            ratios = e.ratios_upto(int(min(size, cap)))
            continue
        break
    if mags is not None:
        log.extend(f"j[n={n}]", range(j + 1), mags)
    return complex(total(kept)), j, mag


def test_tail_factor_is_the_reference_loop_bit_for_bit(monkeypatch, clear_memos):
    # the value, j_used, first omitted term, log entries and the sizes the
    # row is grown to, from a cold row, a short one and a long one
    sizes = []
    grow = engine._Exponent.ratios_upto

    def recording(self, count):
        sizes.append(count)
        return grow(self, count)

    monkeypatch.setattr(engine._Exponent, "ratios_upto", recording)

    def outcome(fn, a, m, n, policy, logged, warm):
        clear_memos()
        if warm:
            tail_factor(warm, m, 1)
        sizes.clear()
        log = TermLog() if logged else None
        try:
            got = fn(a, m, n, policy, log=log)
        except Exception as exc:  # a refusal is an outcome
            got = (type(exc).__name__, str(exc))
        return repr((got, None if log is None else log.entries, sizes))

    policies = [OPTIMAL, Fixed(1), Fixed(2), Fixed(17), Fixed(engine._J_CAP), Fixed(engine._J_CAP + 5)]
    rng = random.Random(20261021)
    for m in range(1, 9):
        x = math.exp(rng.uniform(math.log(1e-3), math.log(20.0)))
        arg = rng.uniform(-1.5, 1.5)
        for a in (x, complex(x, 0.0), complex(x, -0.0), cmath.rect(x, arg)):
            for n in range(1, 4):
                for policy in policies:
                    # cold; warm by 2 ratios at a = 20; by 199 at a = 0.05
                    for warm in (None, 20.0, 0.05):
                        for logged in (True, False):
                            case = (a, m, n, policy, logged, warm)
                            got = outcome(tail_factor, *case)
                            assert got == outcome(_reference_tail_factor, *case), case


@pytest.mark.parametrize("m", range(1, 9))
def test_even_k_terms_are_zeta_real_bit_for_bit(m):
    # the even route's coefficients never come from the recurrence
    a = 0.3 + 0.2j
    row = engine._exponent(2.0 * m).upto(m)
    logged = eval_even(SumSpec(a, 2.0 * m), m, log=TermLog()).term_log.series("k")
    apow = 1.0 + 0j
    for k in range(m + 1):
        z = zeta_real(2.0 * m - 2.0 * k)
        assert row[k] == (-z if k & 1 else z)
        assert logged[k] == (k, abs(z * apow))
        apow *= a / (k + 1)


# ----------------------------------------------------------------------
# model plumbing
# ----------------------------------------------------------------------


def test_term_log_rules():
    log = TermLog()
    log.log("k", 0, 1.0)
    log.log("k", 2, 0.5)
    log.log("j", 0, 2.0)
    with pytest.raises(ValueError):
        log.log("k", 2, 0.1)
    assert log.series("k") == [(0, 1.0), (2, 0.5)]
    assert log.series("j") == [(0, 2.0)]


def test_term_log_extend_refuses_a_first_index_not_past_the_last():
    log = TermLog()
    log.extend("k", range(3), [1.0, 0.5, 0.25])
    for indices in (range(2, 4), [2, 3], range(0, 2)):
        with pytest.raises(ValueError, match="not increasing"):
            log.extend("k", indices, [0.1, 0.1])
    with pytest.raises(ValueError, match="not increasing"):
        log.extend("j", [0, 2, 2], [0.1, 0.1, 0.1])
    with pytest.raises(ValueError, match="not increasing"):
        log.extend("j", range(3, 0, -1), [0.1, 0.1, 0.1])
    # a refused write leaves the log as it was
    assert log.entries == [("k", 0, 1.0), ("k", 1, 0.5), ("k", 2, 0.25)]
    log.extend("k", [3, 5], [0.1, 0.2])
    assert log.series("k")[-2:] == [(3, 0.1), (5, 0.2)]


@pytest.mark.parametrize(
    "mags", [[1.0, -0.5, 0.25], [-1e-300, 1.0, 1.0], [math.nan, -1.0, 1.0], [1.0, math.nan, -0.0 - 1e-300]]
)
def test_term_log_extend_refuses_a_negative_magnitude(mags):
    log = TermLog()
    with pytest.raises(ValueError, match="non-negative"):
        log.extend("j", range(3), mags)
    assert log.entries == []
    # NaN, as a per-term log() takes it, is not refused
    log.extend("j", range(2), [math.nan, 0.0])
    assert len(log.entries) == 2


def test_term_log_one_write_equals_per_term_logs():
    per_term, one_write = TermLog(), TermLog()
    runs = [
        ("j[n=1]", range(0, 4), [1.0, 0.3, 0.2, 0.25]),
        ("n", [1], [0.7]),
        ("k", [0, 1, 3, 4], [2.0, 1.0, 0.5, 0.6]),
        ("j[n=1]", range(4, 6), [0.4, math.inf]),
    ]
    for name, indices, mags in runs:
        for i, mag in zip(indices, mags):
            per_term.log(name, i, mag)
        one_write.extend(name, indices, mags)
    assert one_write.entries == per_term.entries
    for name in ("j[n=1]", "n", "k"):
        assert one_write.series(name) == per_term.series(name)
    # and through a series loop
    logged = TermLog()
    value, j_used, first_omitted = tail_factor(0.3, 2, 1, OPTIMAL, log=logged)
    mags = [m for _, m in logged.series("j[n=1]")]
    by_hand = TermLog()
    for j, mag in enumerate(mags):
        by_hand.log("j[n=1]", j, mag)
    assert logged.series("j[n=1]") == by_hand.series("j[n=1]")
    assert mags[-1] == first_omitted and len(mags) == j_used + 1


def test_policy_validation():
    # a bool is an int, but not a count, as engine._require_positive_int has it
    for bad in (0, -1, 1.0, True, False):
        with pytest.raises(DomainError):
            Fixed(bad)


def test_replace_validates_as_construction_does():
    spec = SumSpec(0.1, 4.0)
    assert spec._replace(w=2) == SumSpec(0.1, 2.0) and type(spec._replace(w=2).w) is float
    assert Fixed(3)._replace(count=5) == Fixed(5)
    for bad in (
        lambda: spec._replace(a=-1.0),
        lambda: spec._replace(w=math.inf),
        lambda: Fixed(3)._replace(count=0),
    ):
        with pytest.raises(DomainError):
            bad()


def test_evaluation_validation():
    for value, err_estimate, terms_used in (
        (complex("inf"), 0.0, {}),
        (math.nan, 0.0, {}),
        (math.inf, 0.0, {}),
        (1.0, math.nan, {}),
        (1.0, math.inf, {}),
        (1.0, -1e-300, {}),
        (1.0, 0.0, {"k": 3, "n": -1}),
    ):
        with pytest.raises(DomainError):
            Evaluation(
                value=value,
                method=MethodChoice.GENERIC,
                terms_used=terms_used,
                err_estimate=err_estimate,
                term_log=TermLog(),
            )
    # no counts, and counts of 0, are accepted
    for terms_used in ({}, {"k": 0, "j": 0}):
        ev = Evaluation(0.5, MethodChoice.DIRECT, terms_used, 0.0, TermLog())
        assert ev.terms_used == terms_used


def _log3():
    log = TermLog()
    log.extend("j", range(3), [1.0, 0.5, 0.25])
    return log


# name -> (a factory of one record, its repr, a field it has (any name
# for a record without fields), whether it is frozen).  The reprs are
# those of the dataclasses the records were before they became
# NamedTuples and __slots__ classes.
RECORDS = {
    "SumSpec": (lambda: SumSpec(0.5 - 0.25j, 1.5), "SumSpec(a=(0.5-0.25j), w=1.5)", "w", True),
    "SumSpec-coerced": (lambda: SumSpec(0.1, 4), "SumSpec(a=(0.1+0j), w=4.0)", "a", True),
    "Fixed": (lambda: Fixed(3), "Fixed(count=3)", "count", True),
    "OptimalFirstMin": (OptimalFirstMin, "OptimalFirstMin()", "eps", True),
    "OracleResult": (
        lambda: OracleResult(value=(0.9 + 0j), n_terms=7, tail_bound=1e-17, rounding_bound=2e-16),
        "OracleResult(value=(0.9+0j), n_terms=7, tail_bound=1e-17, rounding_bound=2e-16)",
        "value",
        True,
    ),
    "ReferenceRow": (
        lambda: ReferenceRow(a=0.1, value=0.952696, abs_err=9.662e-86, j0=96),
        "ReferenceRow(a=0.1, value=0.952696, abs_err=9.662e-86, j0=96)",
        "j0",
        True,
    ),
    "CheckResult": (
        lambda: CheckResult("specfun", "gamma recurrence", 1.5e-15, "<= 1e-13", True),
        "CheckResult(suite='specfun', name='gamma recurrence', measured=1.5e-15, "
        "bound='<= 1e-13', passed=True)",
        "passed",
        True,
    ),
    "TermLog": (_log3, "TermLog(entries=[('j', 0, 1.0), ('j', 1, 0.5), ('j', 2, 0.25)])", "entries", False),
    "TermLog-empty": (TermLog, "TermLog(entries=[])", "entries", False),
    "Evaluation": (
        lambda: Evaluation(1 + 2j, MethodChoice.GENERIC, {"k": 3, "j": 0}, 1e-9, _log3()),
        "Evaluation(value=(1+2j), method=<MethodChoice.GENERIC: 'generic'>, "
        "terms_used={'k': 3, 'j': 0}, err_estimate=1e-09, term_log=TermLog(entries=[('j', 0, 1.0), "
        "('j', 1, 0.5), ('j', 2, 0.25)]), near_odd_warning=False)",
        "err_estimate",
        False,
    ),
    "Evaluation-warned": (
        lambda: Evaluation(0.5, MethodChoice.EVEN_TRANSFORM, {"j": 2}, 0.0, TermLog(), True),
        "Evaluation(value=0.5, method=<MethodChoice.EVEN_TRANSFORM: 'even'>, terms_used={'j': 2}, "
        "err_estimate=0.0, term_log=TermLog(entries=[]), near_odd_warning=True)",
        "err_estimate",
        False,
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_contract(name):
    make, text, field, frozen = RECORDS[name]
    one, two = make(), make()
    assert repr(one) == text
    assert one == two and not one != two and one is not two
    assert bool(one)
    if frozen:
        assert hash(one) == hash(two)
        with pytest.raises(AttributeError):
            setattr(one, field, 1)
        with pytest.raises(AttributeError):
            one.not_a_field = 1
        assert repr(one) == text
    else:
        with pytest.raises(TypeError):
            hash(one)
        setattr(two, field, getattr(two, field))
        assert one == two


def test_records_of_other_types_or_values_differ():
    assert SumSpec(0.1, 4.0) != SumSpec(0.1, 4.5)
    assert Fixed(3) != Fixed(4)
    assert OptimalFirstMin() != Fixed(1)
    log = _log3()
    log.log("k", 0, 1.0)
    assert log != _log3()
    a = Evaluation(1.0, MethodChoice.GENERIC, {"k": 1}, 0.0, TermLog())
    assert a != Evaluation(1.0, MethodChoice.GENERIC, {"k": 1}, 0.0, TermLog(), True)
    assert a != Evaluation(1.0, MethodChoice.GENERIC, {"k": 1}, 0.0, log)


def test_evaluation_by_keyword():
    log = _log3()
    ev = Evaluation(
        value=0.25 + 1j,
        method=MethodChoice.CLASSICAL_PJ,
        terms_used={"n": 4},
        err_estimate=1e-16,
        term_log=log,
    )
    assert (ev.value, ev.method, ev.terms_used, ev.err_estimate) == (
        0.25 + 1j,
        MethodChoice.CLASSICAL_PJ,
        {"n": 4},
        1e-16,
    )
    assert ev.term_log is log and ev.near_odd_warning is False
    assert ev == Evaluation(0.25 + 1j, MethodChoice.CLASSICAL_PJ, {"n": 4}, 1e-16, _log3(), False)
    ev.err_estimate = 2e-16
    assert ev.err_estimate == 2e-16
    # TermLog takes its lists by keyword too, and keeps the ones it is given
    entries = [("k", 0, 1.0)]
    assert TermLog(entries=entries).entries is entries


# ----------------------------------------------------------------------
# public surface
# ----------------------------------------------------------------------


def test_public_surface():
    import thetasum
    from thetasum import errors

    assert thetasum.__all__ == [
        "__version__",
        "SumSpec",
        "Fixed",
        "OPTIMAL",
        "TruncationPolicy",
        "MethodChoice",
        "TermLog",
        "Evaluation",
        "OracleResult",
        "direct_sum",
        "evaluate",
        "ThetaSumError",
        "DomainError",
        "ConvergenceError",
        "PrecisionError",
    ]
    assert all(hasattr(thetasum, name) for name in thetasum.__all__)
    removed = (
        "bernoulli_even",
        "pochhammer",
        "inv_factorial_coeff",
        "log_gamma",
        "optimal_index_w4",
        "RangeError",
        "zeta_real",
        "tail_factor",
        "classical_pj_rhs",
        "remainder_slope",
        "ErrorTarget",
        "eval_generic",
        "eval_even",
        "OptimalFirstMin",
        "PoleError",
        "EvenExponentError",
        "MismatchError",
    )
    assert not any(hasattr(thetasum, name) for name in removed)
    # one class for an argument outside an operation's domain, a wrong route for w included
    subclasses = {
        name
        for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, errors.ThetaSumError) and obj is not errors.ThetaSumError
    }
    assert subclasses == {"DomainError", "PoleError", "ConvergenceError", "PrecisionError"}


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    prints = [line for line in block.splitlines() if line.startswith("print(")]
    assert len(printed) == len(prints)
    # a figure quoted after a print is what it prints, to the digits quoted
    quoted = 0
    for line, out in zip(prints, printed):
        if figure := re.search(r"# (\d\.(\d+)e-\d+)", line):
            assert f"{float(out):.{len(figure.group(2))}e}" == figure.group(1), line
            quoted += 1
    assert quoted == 2


def test_import_leaves_the_checks_dependencies_out():
    # statistics serves verify's remainder_slope only, not a route or the CLI
    src = Path(engine.__file__).parents[1]
    for module in ("thetasum", "thetasum.cli"):
        probe = f"import sys, {module}; print('statistics' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        assert out == "False\n", module


def test_cli_import_leaves_dataclasses_and_fractions_out():
    # each costs the CLI milliseconds at start-up; -S keeps modules that
    # site's .pth files import from hiding one
    src = Path(engine.__file__).parents[1]
    probe = "import sys; b = set(sys.modules); import thetasum.cli; print(*set(sys.modules) - b)"
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    loaded = set(out.split())
    assert "thetasum.cli" in loaded
    assert not {"dataclasses", "inspect", "fractions", "decimal", "random"} & loaded


def _calls(source, name):
    # (enclosing function, line) of each call of the bare name ``name``
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Name) and child.func.id == name:
                found.append((where, child.lineno))
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


ROOT = Path(__file__).parents[1]
PACKAGE = sorted((ROOT / "src" / "thetasum").glob("*.py"))


def test_no_float_value_path_sums_with_the_builtin_sum():
    # sum() compensates over floats from CPython 3.12 on, so a value it
    # added would depend on the Python version; digamma_int's terms are ints
    assert _calls("def f(x):\n    return g(sum(x))\n", "sum") == [("f", 2)]
    modules = [*PACKAGE, *sorted((ROOT / "tools").glob("*.py"))]
    assert len(modules) > len(PACKAGE) > 5
    calls = [
        (path.relative_to(ROOT).as_posix(), where, line)
        for path in modules
        for where, line in _calls(path.read_text(), "sum")
    ]
    assert [call for call in calls if call[:2] != ("src/thetasum/specfun.py", "digamma_int")] == []


def test_only_the_engine_calls_a_route_function():
    # the package reaches a route through evaluate; the route functions
    # stay module globals of engine for the benchmark's tracer
    for path in PACKAGE:
        if path.name != "engine.py":
            for name in ("eval_generic", "eval_even", "tail_factor"):
                assert _calls(path.read_text(), name) == [], (path.name, name)
    cli = ast.parse((ROOT / "src" / "thetasum" / "cli.py").read_text())
    assert not [
        node for node in ast.walk(cli) if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("oracle")
    ]
