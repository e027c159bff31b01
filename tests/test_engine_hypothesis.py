"""Properties: the per-exponent memos never change a generic or even-route
result, the even route's skipped dual terms stay inside err_estimate, and
the classical identity's error stays inside its err_estimate."""

import cmath
import math
import sys

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from thetasum import MethodChoice, SumSpec, TermLog, direct_sum, eval_even, eval_generic, evaluate  # noqa: E402


@settings(max_examples=60, deadline=None, database=None)
@given(
    modulus=st.floats(1e-3, 1.0),
    arg=st.floats(-1.4, 1.4),
    w=st.floats(0.01, 6.99),
)
def test_cold_and_warm_memo_give_identical_results(clear_memos, modulus, arg, w):
    assume(abs(w - 2.0 * round(w / 2.0)) > 1e-6)
    spec = SumSpec(cmath.rect(modulus, arg), w)
    clear_memos()
    # with a log, so that repr(Evaluation) covers its entries
    cold = repr(eval_generic(spec, log=TermLog()))
    warm = repr(eval_generic(spec, log=TermLog()))
    assert warm == cold


@settings(max_examples=60, deadline=None, database=None)
@given(
    modulus=st.floats(1e-3, 1.0),
    arg=st.floats(-1.4, 1.4),
    m=st.integers(1, 4),
)
def test_cold_and_warm_memo_give_identical_even_results(clear_memos, modulus, arg, m):
    spec = SumSpec(cmath.rect(modulus, arg), 2.0 * m)
    clear_memos()
    cold = repr(eval_even(spec, m, log=TermLog()))
    warm = repr(eval_even(spec, m, log=TermLog()))
    assert warm == cold


@settings(max_examples=60, deadline=None, database=None)
@given(
    modulus=st.floats(1e-3, 0.25),
    arg=st.floats(-1.4, 1.4),
    m=st.integers(1, 6),
)
def test_even_route_with_skipped_dual_terms_is_within_its_estimate(modulus, arg, m):
    # Re(1/a) >= 4: every dual term's weight is at most 7e-18, so the
    # optimal policy skips most factors by their bound
    a = cmath.rect(modulus, arg)
    assume((1 / a).real >= 4.0)
    spec = SumSpec(a, 2.0 * m)
    ev = eval_even(spec, m)
    ref = direct_sum(spec)
    slack = ref.noise_floor() + 4 * sys.float_info.epsilon * abs(ev.value)
    assert abs(ev.value - ref.value) <= 10 * ev.err_estimate + slack


@settings(max_examples=60, deadline=None, database=None)
@given(
    log_modulus=st.floats(math.log(1e-3), math.log(20.0)),
    arg=st.floats(-1.55, 1.55),
)
def test_classical_identity_is_within_its_estimate(log_modulus, arg):
    # at |a| >~ 4.7 the parts, of size about 1/2, cancel to S ~ exp(-a):
    # the estimate must cover their rounding
    spec = SumSpec(cmath.rect(math.exp(log_modulus), arg), 0.0)
    ev = evaluate(spec, MethodChoice.CLASSICAL_PJ)
    ref = direct_sum(spec)
    assert abs(ev.value - ref.value) <= 10 * ev.err_estimate + ref.noise_floor()
