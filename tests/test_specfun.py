"""Special-function kernel: frozen examples, guards and outside references.

The standing identities are checks of the ``verify`` specfun suite
(test_cli runs it).  The Bernoulli-number and coefficient tests check
the private helpers of ``thetasum.verify``, which its checks are built on.
"""

import math
import random
from fractions import Fraction

import pytest

from thetasum import DomainError, PoleError, specfun
from thetasum.specfun import (
    _EM_BERNOULLI,
    _EM_COEF,
    _ETA_N,
    _ETA_W,
    _LN2,
    EULER_GAMMA,
    _alternating_zeta_weights,
    _zeta_alternating,
    digamma_int,
    gamma_real,
    zeta_real,
)
from thetasum.verify import (
    _bernoulli_even,
    _gamma_recurrence_worst,
    _inv_factorial_coeff_doubled,
    _pochhammer,
)

SQRT_PI = math.sqrt(math.pi)


def rel(got, want):
    return abs(got - want) / abs(want)


# ----------------------------------------------------------------------
# gamma
# ----------------------------------------------------------------------


def test_gamma_half_is_sqrt_pi():
    assert rel(gamma_real(0.5), SQRT_PI) < 1e-14


def test_gamma_minus_half_via_recurrence():
    # Gamma(-1/2) = Gamma(1/2) / (-1/2)
    expected = SQRT_PI / -0.5
    assert rel(gamma_real(-0.5), expected) < 1e-13


def test_gamma_factorial_case():
    assert rel(gamma_real(5.0), 24.0) < 1e-14


@pytest.mark.parametrize("x", [0.0, -1.0, -2.0, -7.0, -1.0 + 1e-13])
def test_gamma_pole(x):
    with pytest.raises(PoleError):
        gamma_real(x)


def test_gamma_recurrence_random_points():
    # verify's check at a second seed
    assert _gamma_recurrence_worst(314159) < 1e-12


def test_gamma_accuracy_range_50():
    # recurrence chain from Gamma(1/2) up to ~50 stays within contract
    val = SQRT_PI
    x = 0.5
    while x < 49.5:
        val *= x
        x += 1.0
        assert rel(gamma_real(x), val) < 1e-13


def test_gamma_rejects_non_finite():
    with pytest.raises(DomainError):
        gamma_real(math.inf)


def test_gamma_at_the_ends_of_binary64():
    # Gamma(171.5) = 9.48e307 is finite; Gamma(172) is past binary64;
    # Gamma(-500.5) is a negative number below the least subnormal
    assert math.isfinite(gamma_real(171.5))
    assert gamma_real(172.0) == math.inf
    assert math.copysign(1.0, gamma_real(-500.5)) == -1.0 and gamma_real(-500.5) == 0.0


def _gamma_arguments():
    # seeded x off the poles: the singular term's (1 - w)/2 for w in
    # (0, 7], the row's 2 k0 + 1 - w in (1, 3], and the right and left
    # half-lines as far as Gamma and zeta_real's 1 - s reach
    rng = random.Random(20261029)
    bands = {
        "(1-w)/2": [(1.0 - rng.uniform(0.0, 7.0)) / 2.0 for _ in range(400)],
        "(1, 3]": [rng.uniform(1.0, 3.0) for _ in range(400)],
        "(0.5, 171.5]": [rng.uniform(0.5, 171.5) for _ in range(400)],
        "[-170, -1]": [rng.uniform(-170.0, -1.0) for _ in range(400)],
    }
    return {name: [x for x in xs if abs(x - round(x)) > 1e-9] for name, xs in bands.items()}


def test_gamma_within_16u_of_mpmath():
    mpmath = pytest.importorskip("mpmath")
    u = 2.0**-53
    with mpmath.workdps(40):
        for name, xs in _gamma_arguments().items():
            worst = max(
                float(abs(mpmath.mpf(gamma_real(x)) / mpmath.gamma(mpmath.mpf(x)) - 1)) for x in xs
            )
            assert worst <= 16 * u, (name, worst / u)


# ----------------------------------------------------------------------
# digamma at positive integers
# ----------------------------------------------------------------------


def test_digamma_base_value():
    assert abs(digamma_int(0) + EULER_GAMMA) < 1e-16


def test_digamma_small_arguments():
    assert abs(digamma_int(1) - (1.0 - EULER_GAMMA)) < 1e-15
    # H_4 = 25/12
    assert abs(digamma_int(4) - (float(Fraction(25, 12)) - EULER_GAMMA)) < 1e-15


def test_digamma_domain():
    with pytest.raises(DomainError):
        digamma_int(-1)
    with pytest.raises(DomainError):
        digamma_int(1.5)


def test_digamma_is_the_harmonic_number_rounded_once():
    harmonic = Fraction(0)
    for m in range(171):
        harmonic += Fraction(1, m) if m else 0
        assert digamma_int(m) == float(harmonic) - EULER_GAMMA, m


# ----------------------------------------------------------------------
# import-time tables
# ----------------------------------------------------------------------


def test_tables_are_the_exact_rationals_rounded_once():
    # each table built again in Fractions: specfun's integer arithmetic
    # must round the same rationals to the same floats
    n = _ETA_N
    d, acc = [], Fraction(0)
    for i in range(n + 1):
        acc += Fraction(math.factorial(n + i - 1) * 4**i, math.factorial(n - i) * math.factorial(2 * i))
        d.append(n * acc)
    assert _ETA_W == tuple(float(Fraction(d[n] - d_k, d[n])) for d_k in d[:n])
    assert _EM_COEF == tuple(
        float(Fraction(*b) / math.factorial(2 * j)) for j, b in enumerate(_EM_BERNOULLI, 1)
    )
    # and the Bernoulli numbers behind the Euler-Maclaurin table are
    # those of verify's independent recurrence
    assert tuple(float(Fraction(*b)) for b in _EM_BERNOULLI) == _bernoulli_even(len(_EM_BERNOULLI))


# ----------------------------------------------------------------------
# zeta
# ----------------------------------------------------------------------


def test_zeta_at_zero():
    assert zeta_real(0.0) == -0.5
    # the alternating-series backend reproduces the reflection limit
    assert abs(_zeta_alternating(0.0) + 0.5) < 1e-12


def test_eta_kernel_matches_its_definition_bit_for_bit():
    # the kernel sums precomputed signed weights over C-level iteration;
    # the reference is the series as defined, term by term
    rng = random.Random(1729)
    grid = [rng.uniform(0.5, 61.0) for _ in range(300)]
    # the reflected arguments 1 - s of the functional equation, and the
    # small |s| the series takes directly
    grid += [1.0 - rng.uniform(-60.0, -1.0 / 64.0) for _ in range(150)]
    grid += [1.0 - rng.uniform(1.0 / 64.0, 0.5) for _ in range(50)]
    grid += [rng.uniform(-1.0 / 64.0, 1.0 / 64.0) for _ in range(50)]
    grid += [0.5, 1.0 - 1e-9, 2.0, 61.0]
    for s in grid:
        eta = math.fsum(
            (_ETA_W[k] if k % 2 == 0 else -_ETA_W[k]) * (k + 1.0) ** (-s) for k in range(_ETA_N)
        )
        assert _zeta_alternating(s) == eta / -math.expm1((1.0 - s) * _LN2), s


def test_integer_zeta_is_the_50_term_series_bit_for_bit(monkeypatch):
    # the even, pj and Table-1 coefficients read zeta_real at integers
    # alone; pinning those to the 50-term eta series keeps them in place
    # whatever length the series has
    ss = [float(s) for s in range(2, 1101)] + [float(-s) for s in range(1, 60)]
    ours = [zeta_real(s) for s in ss]
    weights = _alternating_zeta_weights(50)
    monkeypatch.setattr(specfun, "_ETA_SW", tuple(-wk if k & 1 else wk for k, wk in enumerate(weights)))
    monkeypatch.setattr(specfun, "_ETA_B", tuple(k + 1.0 for k in range(50)))
    assert list(map(repr, ours)) == [repr(zeta_real(s)) for s in ss]


def test_zeta_within_its_band_ceilings_of_mpmath():
    # relative error against 40-digit mpmath, in u = 2^-53, by band.
    # For 1/64 <= s < 1/2 the functional equation reads zeta and Gamma
    # at 1 - s rounded, which alone costs up to u/(2s): 32u next to
    # s = 1/64 (35.7u measured there), hence the extra draws at that
    # edge and a ceiling of 40u.  Left of 0 the same rounding reaches
    # Gamma(1 - s) pi^(s - 1), whose sensitivity psi(1 - s) - ln(pi)
    # grows with |s|: it alone can cost about 95u at s = -60.
    mpmath = pytest.importorskip("mpmath")
    u = 2.0**-53
    rng = random.Random(20261020)
    bands = {
        "[0.5, 8]": ([rng.uniform(0.5, 8.0) for _ in range(400)], 8),
        "(8, 60]": ([rng.uniform(8.0, 60.0) for _ in range(200)], 4),
        "[0, 0.5)": (
            [rng.uniform(0.0, 0.5) for _ in range(300)] + [rng.uniform(1.0 / 64.0, 0.02) for _ in range(100)],
            40,
        ),
        "[-60, 0)": ([rng.uniform(-60.0, 0.0) for _ in range(400)], 128),
    }
    with mpmath.workdps(40):
        for name, (ss, ceiling) in bands.items():
            worst = max(float(abs(mpmath.mpf(zeta_real(s)) / mpmath.zeta(mpmath.mpf(s)) - 1)) for s in ss)
            assert worst <= ceiling * u, (name, worst / u)


def test_zeta_pole():
    with pytest.raises(PoleError):
        zeta_real(1.0)
    with pytest.raises(PoleError):
        zeta_real(1.0 + 1e-13)


@pytest.mark.parametrize("s", [-170.5, -171.0, -400.5, -1001.0])
def test_zeta_refuses_s_below_minus_170(s):
    # Gamma(1 - s) leaves binary64 there
    with pytest.raises(DomainError, match="s >= -170"):
        zeta_real(s)


def test_zeta_trivial_zeros_below_minus_170_stay_zero():
    assert zeta_real(-172.0) == 0.0
    assert zeta_real(-1000.0) == 0.0


def test_zeta_spot_values():
    # precomputed at 40-digit working precision
    assert rel(zeta_real(3.0), 1.2020569031595942854) < 1e-13
    assert rel(zeta_real(0.5), -1.4603545088095868129) < 1e-13
    assert rel(zeta_real(-0.7), -0.1462371917259080611) < 1e-12
    assert rel(zeta_real(-5.5), -0.002671458019899224599) < 1e-12


def test_zeta_near_pole_accuracy():
    # zeta(1 + d) = 1/d + EULER_GAMMA + O(d), with d the offset the
    # float argument actually represents
    s = 1.0 + 1e-7
    d = s - 1.0
    assert abs(zeta_real(s) - (1.0 / d + EULER_GAMMA)) < 1e-6


@pytest.mark.parametrize("s", [1e-300, -1e-300, 1e-15, -1e-15, 1e-9, -1e-9, 1e-6, -1e-6])
def test_zeta_near_zero_follows_its_tangent(s):
    # zeta(s) = -1/2 - (ln(2 pi) / 2) s + c s^2 + ..., c about -1.0
    tangent = -0.5 - 0.5 * math.log(2.0 * math.pi) * s
    assert rel(zeta_real(s), tangent) <= 1e-12 + 4.0 * s * s


def test_zeta_near_zero_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(64)
    with mpmath.workdps(30):
        for _ in range(400):
            s = rng.choice((-1.0, 1.0)) * math.exp(rng.uniform(math.log(1e-300), math.log(1.0 / 64.0)))
            assert rel(zeta_real(s), float(mpmath.zeta(s))) <= 1e-12, s


# ----------------------------------------------------------------------
# Bernoulli numbers
# ----------------------------------------------------------------------


def test_bernoulli_first_values():
    assert _bernoulli_even(3) == (float(Fraction(1, 6)), float(Fraction(-1, 30)), float(Fraction(1, 42)))


def test_bernoulli_zeta_cross_check():
    # (2 pi)^2 |B_2| / (2 * 2!) = pi^2 / 6 = zeta(2)
    ident = (2.0 * math.pi) ** 2 * abs(_bernoulli_even(1)[0]) / (2.0 * math.factorial(2))
    assert rel(ident, math.pi**2 / 6.0) < 1e-14


# ----------------------------------------------------------------------
# Pochhammer and expansion coefficients
# ----------------------------------------------------------------------


def test_pochhammer_basics():
    assert _pochhammer(1.5, 0) == 1.0
    assert _pochhammer(1.5, 2) == pytest.approx(3.75, rel=1e-15)
    for j in range(8):
        assert _pochhammer(1.0, j) == pytest.approx(math.factorial(j), rel=1e-14)


def _inv_factorial_coeff(m, j):
    # tail-factor coefficient (m)_j (m+1/2)_j / j!, products and the
    # factorial interleaved so intermediates stay bounded by the result
    acc = 1.0
    for i in range(j):
        acc *= (m + i) * (m + 0.5 + i) / (i + 1.0)
    return acc


def test_coeff_leading_and_spot_values():
    for m in (1, 2, 5):
        assert _inv_factorial_coeff(m, 0) == 1.0
        assert _inv_factorial_coeff_doubled(m, 0) == 1.0
    # the m = 1 coefficients reduce to the single rising factorial (3/2)_j
    for j in range(12):
        assert rel(_inv_factorial_coeff(1, j), _pochhammer(1.5, j)) < 1e-13
    assert _inv_factorial_coeff(2, 1) == pytest.approx(5.0, rel=1e-14)
    # verify's closed form 2^(-2j) (2m)_{2j} / j! is the same coefficient
    for m in (1, 2, 5, 9):
        for j in range(12):
            assert rel(_inv_factorial_coeff_doubled(m, j), _inv_factorial_coeff(m, j)) < 1e-13


# ----------------------------------------------------------------------
# independent cross-checks against scipy, when available
# ----------------------------------------------------------------------


def test_cross_check_scipy():
    special = pytest.importorskip("scipy.special")
    for x in (0.25, 1.7, 9.3, 33.3, -4.4, -0.3):
        assert rel(gamma_real(x), float(special.gamma(x))) < 1e-12
    for m in (0, 1, 7, 40):
        assert abs(digamma_int(m) - float(special.digamma(m + 1))) < 1e-13
    for s in (1.5, 2.5, 6.0, 25.0):
        assert rel(zeta_real(s), float(special.zeta(s))) < 1e-12
