"""Independent 60-digit check of the generic-expansion remainder.

S(a; w) is summed with ``mpmath.nsum`` and the truncated expansion
1/2 Gamma((1-w)/2) a^((w-1)/2) + sum_{k<N} (-a)^k zeta(w-2k)/k! is built
from ``mpmath.zeta`` and ``mpmath.gamma``, so R_N is measured without
``direct_sum`` or ``eval_generic``.  This settles the centre of
acceptance criterion 5: R_N tracks its first omitted term, so the
log-log slope is N, not the N - 1/2 of the uniform bound.
"""

import pytest

from thetasum.verify import remainder_slope

mpmath = pytest.importorskip("mpmath")

GRID = ["0.0125", "0.025", "0.05", "0.1"]
CASES = (("1.3", 2), ("3", 3))


def _exact_sum(a, w):
    return mpmath.nsum(lambda n: mpmath.exp(-a * n * n) / mpmath.power(n, w), [1, mpmath.inf])


def _k_term(a, w, k):
    return (-a) ** k * mpmath.zeta(w - 2 * k) / mpmath.factorial(k)


def _singular(a, w):
    return mpmath.gamma((1 - w) / 2) * mpmath.power(a, (w - 1) / 2) / 2


def _truncated(a, w, N):
    if w % 2 != 1:
        return _singular(a, w) + sum(_k_term(a, w, k) for k in range(N))
    # odd w = 2m+1: Gamma((1-w)/2) and zeta(w-2m) have opposite poles; their
    # sum is analytic at w, so the mean of its values at w +- h is exact to O(h^2)
    m = int(w) // 2
    h = mpmath.mpf(10) ** -25
    head = sum(_singular(a, v) + _k_term(a, v, m) for v in (w + h, w - h)) / 2
    return head + sum(_k_term(a, w, k) for k in range(N) if k != m)


def _slope(xs, ys):
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


@pytest.mark.parametrize("w_text, N", CASES)
def test_exact_remainder_decays_with_exponent_n(w_text, N):
    with mpmath.workdps(60):
        w = mpmath.mpf(w_text)
        xs, ys = [], []
        for a_text in GRID:
            a = mpmath.mpf(a_text)
            remainder = _exact_sum(a, w) - _truncated(a, w, N)
            ratio = remainder / _k_term(a, w, N)
            assert 1 <= ratio <= 1.02, f"R_N / first omitted term = {mpmath.nstr(ratio, 8)} at a = {a_text}"
            xs.append(mpmath.log(a))
            ys.append(mpmath.log(abs(remainder)))
        slope = float(_slope(xs, ys))

    assert abs(slope - N) <= 0.15
    assert not N - 0.65 <= slope <= N - 0.35
    assert remainder_slope(float(w_text), N, [float(x) for x in GRID]) == pytest.approx(slope, abs=1e-6)
