"""Acceptance gate: every criterion at its pinned tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see
them all).  Criterion 5 pins the empirical remainder-decay exponent of
the truncated generic expansion to N +- 0.15: the remainder R_N is
(-a)^N zeta(w - 2N)/N! * (1 + O(a)), so log |R_N| against log a has
slope N + O(a).  N - 1/2 is only the exponent of the uniform
Mellin-Barnes bound O(a^(N-1/2)), not a decay rate; the one-sided
check slope >= N - 1/2 lives only in the ``verify`` appendix suite.
``test_remainder_mpmath.py`` backs the centre with an independent
60-digit computation of R_N.

Criteria 1-4 and 6-9 assert on the named checks of the ``verify``
suites, which measure the same points against the same bounds
(``checks_specfun`` covers criterion 7 and more).  What those checks
leave out stays here: the Table-1 values S to 6 decimals and the time
limits.
"""

import time

from thetasum import SumSpec, direct_sum
from thetasum.reference import W4_ROWS
from thetasum.verify import remainder_slope, run_suite


def report(number: int, description: str, passed: bool) -> bool:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number}: {status} - {description}")
    return passed


def checks(suite: str) -> dict:
    return {r.name: r for r in run_suite(suite)}


def test_criterion_1_reachable_rows_factor_two():
    start = time.perf_counter()
    ok = checks("engine")["w=4 reachable-row errors vs reference"].passed
    for row in W4_ROWS:
        if row.reachable:
            ok = ok and f"{direct_sum(SumSpec(row.a, 4.0)).value.real:.6f}" == f"{row.value:.6f}"
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    assert report(1, f"reachable-row errors within factor 2, S to 6 decimals ({elapsed:.2f}s)", ok)


def test_criterion_2_unreachable_rows_oracle_resolution():
    start = time.perf_counter()
    ok = checks("engine")["w=4 unreachable rows at oracle resolution"].passed
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    assert report(2, f"unreachable rows agree with oracle to 1e-13 ({elapsed:.2f}s)", ok)


def test_criterion_3_least_term_indices():
    start = time.perf_counter()
    ok = checks("engine")["w=4 least-term index vs reference"].passed
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
    in_window_a = 1.85 <= slope_a <= 2.15
    in_window_b = 2.85 <= slope_b <= 3.15
    elapsed = time.perf_counter() - start
    ok = in_window_a and in_window_b and elapsed < 5.0
    report(
        5,
        f"remainder slopes {slope_a:.3f}, {slope_b:.3f} vs pinned windows "
        f"[1.85,2.15], [2.85,3.15] ({elapsed:.2f}s)",
        ok,
    )
    # The remainder tracks its first omitted term, (-a)^N zeta(w-2N)/N!,
    # which is nonzero at both cases (zeta(-2.7), zeta(-3) = 1/120), so
    # the windows are centred on N.  The 60-digit slopes are 2.0057 and
    # 3.0050 (test_remainder_mpmath.py).
    assert ok, (
        f"slopes {slope_a:.4f} and {slope_b:.4f} ({elapsed:.2f}s) should lie within "
        "0.15 of N, the exponent of the first omitted term, in under 5 s"
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
