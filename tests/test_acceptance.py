"""Acceptance gate: every criterion at its pinned tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see
them all).  Criterion 5 pins the empirical remainder-decay exponent to
N - 1/2; the measured remainder is dominated by its first omitted
term and decays like a^N, so that check fails by construction of the
criterion.  The one-sided bound it was meant to confirm (slope >=
N - 1/2, i.e. the remainder is O(a^(N-1/2))) holds with room and is
covered by the engine tests and the ``verify`` CLI suite.

Criteria 4 and 6-9 assert on the named checks of the ``verify``
suites, which measure the same points against the same bounds
(``checks_specfun`` covers criterion 7 and more).
"""

import time

from thetasum import (
    OPTIMAL,
    SumSpec,
    direct_sum,
    eval_even,
    remainder_slope,
)
from thetasum.reference import W4_ROWS
from thetasum.verify import run_suite

REACHABLE = {0.75: 4.656e-11, 1.00: 3.642e-8, 1.50: 2.856e-5, 2.00: 7.500e-4}
UNREACHABLE = (0.10, 0.20, 0.25, 0.50)


def report(number: int, description: str, passed: bool) -> bool:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number}: {status} - {description}")
    return passed


def checks(suite: str) -> dict:
    return {r.name: r for r in run_suite(suite)}


def test_criterion_1_reachable_rows_factor_two():
    start = time.perf_counter()
    ok = True
    for a, ref_err in REACHABLE.items():
        spec = SumSpec(a, 4.0)
        ref = direct_sum(spec)
        ev = eval_even(spec, 2, OPTIMAL, n_max=1)
        err = abs(ev.value - ref.value)
        ok = ok and 0.5 <= err / ref_err <= 2.0
        row = next(r for r in W4_ROWS if r.a == a)
        ok = ok and f"{ref.value.real:.6f}" == f"{row.value:.6f}"
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    assert report(1, f"reachable-row errors within factor 2, S to 6 decimals ({elapsed:.2f}s)", ok)


def test_criterion_2_unreachable_rows_oracle_resolution():
    start = time.perf_counter()
    ok = True
    for a in UNREACHABLE:
        spec = SumSpec(a, 4.0)
        err = abs(eval_even(spec, 2, OPTIMAL, n_max=1).value - direct_sum(spec).value)
        ok = ok and err <= 1e-13
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    assert report(2, f"unreachable rows agree with oracle to 1e-13 ({elapsed:.2f}s)", ok)


def test_criterion_3_least_term_indices():
    start = time.perf_counter()
    ok = True
    for row in W4_ROWS:
        ev = eval_even(SumSpec(row.a, 4.0), 2, OPTIMAL, n_max=1)
        j0 = ev.terms_used["j"] - 1
        ok = ok and abs(j0 - row.j0) <= 2
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    assert report(3, f"least-term index within +-2 of reference at all rows ({elapsed:.2f}s)", ok)


def test_criterion_4_classical_identity():
    ok = checks("engine")["classical identity a in {0.5,1,2,pi}"].passed
    assert report(4, "classical transformation identity to 1e-13", ok)


def test_criterion_5_remainder_slope_windows():
    start = time.perf_counter()
    grid = [0.0125, 0.025, 0.05, 0.1]
    slope_a = remainder_slope(1.3, 2, grid)
    slope_b = remainder_slope(3.0, 3, grid)
    in_window_a = 1.35 <= slope_a <= 1.65
    in_window_b = 2.35 <= slope_b <= 2.65
    elapsed = time.perf_counter() - start
    ok = in_window_a and in_window_b and elapsed < 5.0
    report(
        5,
        f"remainder slopes {slope_a:.3f}, {slope_b:.3f} vs pinned windows "
        f"[1.35,1.65], [2.35,2.65] ({elapsed:.2f}s)",
        ok,
    )
    # The windows presume the uniform bound exponent N - 1/2 is the
    # observed decay rate; the remainder actually tracks its first
    # omitted term (~ a^N), which satisfies the bound but not the
    # window.  Kept faithful to the stated criterion.
    assert ok, (
        f"slopes {slope_a:.4f} and {slope_b:.4f} track the first omitted term "
        "(exponent N), outside the pinned N-1/2 windows; the one-sided bound "
        "slope >= N-1/2 holds with margin"
    )


def test_criterion_6_generic_oracle_equivalence():
    start = time.perf_counter()
    check = checks("engine")["generic oracle equivalence (18-point grid)"]
    elapsed = time.perf_counter() - start
    ok = check.passed and elapsed < 5.0
    assert report(
        6, f"generic expansion within 1e-11 of oracle, worst {check.measured:.2e} ({elapsed:.2f}s)", ok
    )


def test_criterion_7_specfun_identities():
    specfun = checks("specfun")
    ok = all(
        specfun[name].passed
        for name in (
            "bernoulli-zeta identity n=1..15",
            "zeta reflection consistency",
            "coefficient two-form equality",
            "zeta(2), zeta(4) closed forms",
        )
    )
    assert report(7, "zeta/Bernoulli/reflection/coefficient identities", ok)


def test_criterion_8_sector_validity():
    ok = checks("engine")["sector validity |arg a| <= 1.2"].passed
    assert report(8, "complex sector |arg a| <= 1.2 within 1e-9 of oracle", ok)


def test_criterion_9_specialization_fixtures():
    ok = checks("engine")["specialization vs literal m=1,2 forms"].passed
    assert report(9, "quadratic/quartic specializations match literal forms to 1e-13", ok)
