"""Property: the per-exponent memos never change a generic or even-route result."""

import cmath

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from thetasum import SumSpec, eval_even, eval_generic  # noqa: E402


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
    cold = repr(eval_generic(spec))
    warm = repr(eval_generic(spec))
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
    cold = repr(eval_even(spec, m))
    warm = repr(eval_even(spec, m))
    assert warm == cold
