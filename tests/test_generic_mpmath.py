"""High-precision checks of the generic route's coefficients and error estimate.

The k-sum coefficient row (-1)^k zeta(w - 2k) is compared with
``mpmath.zeta``, and ``eval_generic``'s err_estimate with its true error
against S(a; w) summed in 40-digit arithmetic, apart from the package.
"""

import cmath
import math
import random

import pytest

from thetasum import SumSpec, eval_generic
from thetasum import engine

mpmath = pytest.importorskip("mpmath")

K_MAX = 30


def _row_grid():
    ws = [5.99976, 0.01, 0.3, 17.77, 25.3, 39.5, 40.0 - 0.3, 40.5]
    for j in range(0, 6):
        # near odd, where the k = j entry is skipped at odd w itself
        for d in (1e-9, 1e-7, 1e-5, 1e-3, 1e-2, 0.05):
            ws += [2 * j + 1 + d, 2 * j + 1 - d]
    for j in range(1, 8):
        # near even, where zeta(2k + 1 - w) sits next to its pole
        for d in (1e-6, 1e-5, 1e-4, 1e-3):
            ws += [2 * j + d, 2 * j - d]
    rng = random.Random(20261019)
    ws += [rng.uniform(0.05, 40.0) for _ in range(40)]
    return ws


def test_row_matches_mpmath_zeta():
    mpmath.mp.dps = 40
    worst = (0.0, None)
    for w in _row_grid():
        kind, m = engine.classify_exponent(w)
        row = engine._exponent(w).upto(K_MAX)
        for k in range(K_MAX + 1):
            if kind == engine.ODD and k == m:
                continue
            want = (-1) ** k * mpmath.zeta(mpmath.mpf(w) - 2 * k)
            worst = max(worst, (float(abs(row[k] / want - 1)), (w, k)))
    assert worst[0] <= 1e-14, worst


def _exact_sum(a, w):
    # the omitted tail is below exp(-110), past 40 digits
    a, w = mpmath.mpc(a), mpmath.mpf(w)
    n_max = math.isqrt(int(110 / float(a.real))) + 2
    return mpmath.fsum(mpmath.exp(-a * n * n) / mpmath.power(n, w) for n in range(1, n_max + 1))


def _accurate_grid(count, seed):
    # the domain where the generic route leaves out no dual term above
    # 1e-17 and keeps 0.25 from every odd w: Re(1/a) >= 4, w in (0.1, 8)
    rng = random.Random(seed)
    points = []
    while len(points) < count:
        a = cmath.rect(math.exp(rng.uniform(math.log(1e-3), math.log(0.25))), rng.uniform(-1.4, 1.4))
        w = rng.uniform(0.1, 8.0)
        if (1 / a).real >= 4.0 and min(abs(w - odd) for odd in range(1, 11, 2)) >= 0.25:
            points.append((a, w))
    return points


@pytest.mark.parametrize("a,w", [(0.2329 + 0.0403j, 1.2721), *_accurate_grid(40, 31)])
def test_generic_err_estimate_bounds_the_true_error(a, w):
    mpmath.mp.dps = 40
    ev = eval_generic(SumSpec(a, w))
    err = abs(mpmath.mpc(ev.value) - _exact_sum(a, w))
    assert err <= ev.err_estimate, (float(err), ev.err_estimate)
