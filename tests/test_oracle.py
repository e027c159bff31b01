"""Direct-summation oracle: tail bound soundness and frozen anchors.

Monotonicity and the zeta limit are checks of the ``verify`` oracle
suite (test_cli runs it).
"""

import cmath
import math
import random
import sys
from types import SimpleNamespace

import pytest

from thetasum import oracle
from thetasum import (
    ConvergenceError,
    DomainError,
    MethodChoice,
    PrecisionError,
    SumSpec,
    direct_sum,
    evaluate,
)
from thetasum.verify import _plain_partial, _tail_bound_soundness


def test_classical_case_matches_transformation():
    res = direct_sum(SumSpec(1.0, 0.0), 1e-16)
    pj = evaluate(SumSpec(1.0, 0.0), MethodChoice.CLASSICAL_PJ, n_max=12)
    assert abs(res.value - pj.value) <= 1e-14


def test_reference_anchor_w4():
    res = direct_sum(SumSpec(1.0, 4.0))
    assert f"{res.value.real:.6f}" == "0.369026"
    assert abs(res.value.imag) == 0.0


def test_dominant_first_term():
    res = direct_sum(SumSpec(50.0, 4.0))
    # first omitted correction is exp(-200)/16, far below any resolution
    assert res.value.real == pytest.approx(math.exp(-50.0), rel=1e-12)
    assert res.n_terms <= 3


def test_rejects_bad_spec_and_eps():
    with pytest.raises(DomainError):
        SumSpec(0.0, 4.0)
    with pytest.raises(DomainError):
        SumSpec(-1.0, 4.0)
    with pytest.raises(DomainError):
        SumSpec(1.0, -1.0)
    with pytest.raises(DomainError):
        direct_sum(SumSpec(1.0, 4.0), 1e-17)


def test_convergence_error_for_tiny_re_a():
    with pytest.raises(ConvergenceError):
        direct_sum(SumSpec(1e-15, 0.5))


def test_small_re_a_with_a_large_w_is_summed():
    # the tail falls with n^-w long before exp(-a n^2) does
    res = direct_sum(SumSpec(1e-13, 60.0))
    assert res.n_terms == 2
    assert res.value.real == pytest.approx(1.0 + 2.0**-60, rel=1e-12)
    # and at w = 4 the cutoff is below the budget
    assert oracle._stop_index(1e-15, 4.0, 1e-16)[0] == 1_379_204


@pytest.mark.parametrize("a", [1e-310, 5e-324, 1e-310 + 1j])
def test_cutoff_past_an_overflowing_power_is_a_precision_error(a):
    # with Re(a) (2n+3) below about 6e-293 the cutoff lies past a term
    # whose n^w is past binary64
    with pytest.raises(PrecisionError, match="past binary64"):
        direct_sum(SumSpec(a, 140.0))


def test_tail_bound_decreases_with_eps():
    spec = SumSpec(0.3, 2.5)
    coarse = direct_sum(spec, 1e-6)
    fine = direct_sum(spec, 1e-16)
    assert fine.n_terms > coarse.n_terms
    assert fine.tail_bound < coarse.tail_bound
    assert abs(fine.value - coarse.value) <= coarse.tail_bound


def test_tail_bound_soundness_random_specs():
    # verify's check at a second seed
    _, sound = _tail_bound_soundness(20240817)
    assert sound


def test_complex_parameter():
    spec = SumSpec(0.4 + 0.3j, 2.0)
    res = direct_sum(spec)
    # brute-force cross sum with generous fixed cutoff
    brute = sum(cmath.exp(-spec.a * n * n) / n**2 for n in range(1, 40))
    assert abs(res.value - brute) < 1e-14


def test_stop_index_matches_a_linear_scan():
    rng = random.Random(20261018)
    at_one = 0
    for i in range(300):
        re_a = math.exp(rng.uniform(math.log(1e-6), math.log(100.0)))
        w = (0.0, 12.0, rng.uniform(0.0, 20.0))[i % 3]
        eps = math.exp(rng.uniform(math.log(1e-16), math.log(10.0)))
        n = 1
        while oracle._tail_bound(re_a, w, n) > eps:
            n += 1
        # the bound comes back with the index, as _tail_bound gives it there
        assert oracle._stop_index(re_a, w, eps) == (n, oracle._tail_bound(re_a, w, n)), (re_a, w, eps)
        if eps > 1.0 and n == 1:
            at_one += 1
    # the estimate's log(eps) < 0 side is exercised, not only small eps
    assert at_one >= 10


def test_loose_eps_stops_at_the_first_term():
    # above eps = 1 the stop index's target -log(eps) is negative
    res = direct_sum(SumSpec(1.0, 2.0), 1e3)
    assert res.n_terms == 1
    assert res.value == cmath.exp(-1.0)
    assert res.tail_bound <= 1e3


def test_stop_index_past_the_budget_raises(monkeypatch):
    monkeypatch.setattr(oracle, "MAX_TERMS", 100)
    with pytest.raises(ConvergenceError) as info:
        oracle._stop_index(1e-3, 1.5, 1e-16)
    assert str(info.value) == (
        "direct summation exceeded 100 terms at eps=1e-16; "
        "convergence is too slow, use an expansion method"
    )


def test_budget_error_comes_before_any_term(monkeypatch):
    # needs ~1.1e7 terms, past MAX_TERMS: _stop_index refuses it
    def no_terms(*args):
        raise AssertionError("a term was made")

    # every term, real or complex, divides by math.pow(k, w)
    monkeypatch.setattr(oracle, "cmath", SimpleNamespace(exp=no_terms))
    monkeypatch.setattr(math, "pow", no_terms)
    with pytest.raises(ConvergenceError, match=f"exceeded {oracle.MAX_TERMS} terms at eps=1e-16"):
        direct_sum(SumSpec(4e-13, 0.0))


def test_sum_over_several_blocks():
    a, w = 1e-7, 1.5
    res = direct_sum(SumSpec(a, w))
    assert res.n_terms > oracle._BLOCK
    reference, _ = _plain_partial(complex(a), w, res.n_terms)
    assert abs(res.value - reference) <= res.rounding_bound


@pytest.mark.parametrize("a", [0.01 + 0.005j, 1e-3, 0.3 - 0.2j])
def test_block_size_does_not_move_the_value(monkeypatch, a):
    # the carry between blocks keeps the sum rounded once
    whole = direct_sum(SumSpec(a, 1.5))
    monkeypatch.setattr(oracle, "_BLOCK", 7)
    assert direct_sum(SumSpec(a, 1.5)) == whole


def _complex_direct_sum(spec, eps):
    # direct_sum's loop with cmath.exp on every term, as it ran before
    # the real axis had its float path
    a, w = spec.a, spec.w
    n, _ = oracle._stop_index(a.real, w, eps)
    re_parts, im_parts, abs_acc = [0.0], [0.0], 0.0
    for start in range(1, n + 1, oracle._BLOCK):
        stop = min(start + oracle._BLOCK, n + 1)
        for k in range(start, stop):
            term = cmath.exp(-a * (k * k)) / math.pow(k, w)
            re_parts.append(term.real)
            im_parts.append(term.imag)
            abs_acc += abs(term)
        if stop <= n:
            re_parts = oracle._condense(re_parts)
            im_parts = oracle._condense(im_parts)
    return oracle.OracleResult(
        value=complex(math.fsum(re_parts), math.fsum(im_parts)),
        n_terms=n,
        tail_bound=oracle._tail_bound(a.real, w, n),
        rounding_bound=n * sys.float_info.epsilon * abs_acc,
    )


@pytest.mark.parametrize("block", [None, 7], ids=["one-block", "block-7"])
def test_real_a_is_the_complex_sum_bit_for_bit(monkeypatch, block):
    if block is not None:
        monkeypatch.setattr(oracle, "_BLOCK", block)
    rng = random.Random(20261019)
    blocks = 0
    for i in range(80):
        x = math.exp(rng.uniform(math.log(1e-4), math.log(20.0)))
        w = (0.0, 4.0, rng.uniform(0.0, 12.0))[i % 3]
        for eps in (1e-16, 1e-10):
            for a in (complex(x, 0.0), complex(x, -0.0)):
                spec = SumSpec(a, w)
                res = direct_sum(spec, eps)
                assert repr(res) == repr(_complex_direct_sum(spec, eps)), (a, w, eps)
                assert math.copysign(1.0, res.value.imag) == 1.0
                blocks += res.n_terms > oracle._BLOCK
    # with the small block most sums carry across blocks
    assert (blocks > 200) == (block is not None)


def test_oracle_sound_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(6)
    with mpmath.workdps(40):
        for _ in range(40):
            a = cmath.rect(math.exp(rng.uniform(math.log(1e-3), math.log(4.0))), rng.uniform(-1.4, 1.4))
            w = rng.uniform(0.0, 8.0)
            res = direct_sum(SumSpec(a, w))
            ma, mw = mpmath.mpc(a), mpmath.mpf(w)
            exact = mpmath.mpc(0)
            n = 0
            while True:
                n += 1
                term = mpmath.exp(-ma * n * n) / mpmath.power(n, mw)
                exact += term
                if n > res.n_terms and abs(term) < mpmath.mpf(10) ** -45:
                    break
            err = float(abs(mpmath.mpc(res.value) - exact))
            assert err <= res.tail_bound + res.rounding_bound, (a, w, err)


@pytest.mark.parametrize("w", [1024.5, 1100.5, 1e5, 1e10])
def test_tail_bound_where_n_to_the_w_overflows(w):
    # (n + 1)^w is past binary64; the bound is taken in logs
    assert 0.0 <= oracle._tail_bound(0.05, w, 1) <= 1e-300
    assert 0.0 <= oracle._tail_bound(1e-3, w, 40) <= 1e-300
    a = 0.5 + 0.8j
    res = direct_sum(SumSpec(a, w))
    assert res.n_terms == 1
    assert res.value == cmath.exp(-a)


def test_result_bounds_nonnegative():
    res = direct_sum(SumSpec(0.7, 1.2))
    assert res.tail_bound >= 0.0
    assert res.rounding_bound >= 0.0
    assert res.noise_floor() >= res.tail_bound
