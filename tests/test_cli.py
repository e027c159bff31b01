"""CLI surface: reports, exit codes, CSV format, determinism."""

import cmath
import copy
import csv
import time

import pytest

import thetasum.engine
import thetasum.verify
from thetasum import SumSpec, direct_sum
from thetasum.cli import METHODS, main

SWEEP_HEADER = (
    "a_re,a_im,w,method,value_re,value_im,err_estimate,"
    "abs_err_vs_oracle,terms_k,terms_j,terms_n,j0"
)


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ----------------------------------------------------------------------
# eval
# ----------------------------------------------------------------------


def test_eval_reference_point(capsys):
    rc, out, _ = run(capsys, "eval", "--a", "1.0", "--w", "4")
    assert rc == 0
    assert "method        even" in out
    assert "0.36902565" in out
    assert "abs_error" in out
    assert "3.76" in out  # abs error ~3.76e-8


def test_eval_guard_names_precondition(capsys):
    rc, _, err = run(capsys, "eval", "--a", "-1", "--w", "4")
    assert rc == 2
    assert "Re(a) > 0" in err


def test_eval_generic_matches_oracle(capsys):
    rc, out, _ = run(capsys, "eval", "--a", "0.5", "--w", "1.5", "--method", "generic")
    assert rc == 0
    abs_error = float(next(line.split()[1] for line in out.splitlines() if line.startswith("abs_error")))
    # at a = 0.5 the achievable accuracy is set by the neglected
    # exponentially small component ~ exp(-pi^2/a) = 2.7e-9
    assert abs_error <= 1e-9


def test_eval_generic_small_a_matches_oracle(capsys):
    rc, out, _ = run(capsys, "eval", "--a", "0.05", "--w", "1.5", "--method", "generic")
    assert rc == 0
    abs_error = float(next(line.split()[1] for line in out.splitlines() if line.startswith("abs_error")))
    assert abs_error <= 1e-12


def test_eval_direct_infeasible_exit_code(capsys):
    rc, _, err = run(capsys, "eval", "--a", "1e-15", "--w", "0.5", "--method", "direct")
    assert rc == 3
    assert "expansion" in err


def test_eval_direct_at_small_a_and_large_w_answers(capsys):
    rc, out, _ = run(capsys, "eval", "--a", "1e-13", "--w", "60", "--method", "direct")
    assert rc == 0
    assert _report(out)["terms"] == "n_direct=2"


def test_eval_direct_past_an_overflowing_power_is_a_precondition(capsys):
    # the cutoff lies past a term whose n^140 is past binary64
    rc, out, err = run(capsys, "eval", "--a", "1e-310", "--w", "140", "--method", "direct")
    assert rc == 2
    assert out == ""
    assert err.startswith("error: precondition violated: ") and "past binary64" in err


@pytest.mark.parametrize("a", ["1e-15", "1e-310"])
def test_eval_reports_an_infeasible_oracle(a, tmp_path, capsys):
    # the route answers; the oracle refuses (too many terms, or an n^w
    # past binary64), and eval says so, sweep leaves the error empty
    w = "0.5" if a == "1e-15" else "140"
    rc, out, _ = run(capsys, "eval", "--a", a, "--w", w)
    assert rc == 0
    assert "oracle        infeasible" in out
    assert "abs_error" not in out
    target = tmp_path / "s.csv"
    rc, _, _ = run(capsys, "sweep", "--a", a, "--w", w, "--out", str(target))
    assert rc == 0
    assert [row["abs_err_vs_oracle"] for row in csv.DictReader(target.open())] == [""]


@pytest.mark.parametrize("a", ["inf", "nan", "1+infj"])
def test_eval_non_finite_a_is_a_precondition(a, capsys):
    rc, out, err = run(capsys, "eval", "--a", a, "--w", "1.5")
    assert rc == 2
    assert out == ""
    assert "must be finite" in err


@pytest.mark.parametrize("policy", ["fixed:x", "fixed:", "fixed:2.5"])
def test_eval_malformed_fixed_policy_is_refused(policy, capsys):
    rc, out, err = run(capsys, "eval", "--a", "0.5", "--w", "4", "--policy", policy)
    assert rc == 2
    assert out == ""
    assert "fixed:N" in err


def test_eval_near_odd_warning_shown(capsys):
    rc, out, _ = run(capsys, "eval", "--a", "0.05", "--w", "3.01", "--method", "generic")
    assert rc == 0
    assert "warning" in out


@pytest.mark.parametrize(
    "method, w, message",
    [
        ("even", "1.5", "EvenTransform requires w = 2m for integer m >= 1, got w = 1.5"),
        ("pj", "1", "ClassicalPJ requires w = 0, got w = 1.0"),
        ("generic", "4", "w = 4.0 is an even integer; use the even-exponent transformation"),
    ],
)
def test_eval_route_that_does_not_take_w_is_a_precondition(method, w, message, capsys):
    rc, out, err = run(capsys, "eval", "--a", "0.5", "--w", w, "--method", method)
    assert rc == 2
    assert out == ""
    assert err == f"error: precondition violated: {message}\n"


def test_eval_bad_policy(capsys):
    rc, _, err = run(capsys, "eval", "--a", "1", "--w", "4", "--policy", "sloppy")
    assert rc == 2
    assert "policy" in err


@pytest.mark.parametrize("command", ["eval", "sweep"])
def test_retired_target_policy_is_refused(command, tmp_path, capsys):
    target = tmp_path / "s.csv"
    if command == "eval":
        argv = ["eval", "--a", "0.5", "--w", "4"]
    else:
        argv = ["sweep", "--a", "0.5", "--w", "4", "--methods", "even", "--out", str(target)]
    rc, out, err = run(capsys, *argv, "--policy", "target:1e-3")
    assert rc == 2
    assert out == ""
    assert "optimal | fixed:N" in err
    assert not target.exists()


def test_eval_auto_routes_w0_to_pj(capsys):
    rc, out, _ = run(capsys, "eval", "--a", "1", "--w", "0")
    assert rc == 0
    assert "method        pj" in out


def test_eval_rejected_oracle_eps_prints_nothing(capsys):
    # the oracle's eps check runs before the report is printed
    rc, out, err = run(capsys, "eval", "--a", "1", "--w", "4", "--eps", "1e-20")
    assert rc == 2
    assert out == ""
    assert "eps" in err


def test_eval_complex_argument(capsys):
    rc, out, _ = run(capsys, "eval", "--a", "0.5+0.3j", "--w", "4")
    assert rc == 0
    assert "value_im" in out


def test_eval_even_with_underflowed_dual_weight_prints_no_j0(capsys):
    rc, out, _ = run(capsys, "eval", "--a", "0.01", "--w", "4")
    assert rc == 0
    assert "terms         j=0 k=3 n=1" in out
    assert "j0 j[n=1]" not in out


def _report(out):
    return dict(line.split(None, 1) for line in out.splitlines() if " " in line.strip())


def test_eval_exponent_next_to_zero_matches_oracle(capsys):
    rc, out, _ = run(capsys, "eval", "--a", "0.05", "--w", "1e-12")
    assert rc == 0
    assert float(_report(out)["abs_error"]) <= 1e-13


@pytest.mark.parametrize("a", ["1e200", "1e-12+1j"])
def test_eval_w0_estimate_bounds_the_dual_tail_past_the_cap(capsys, a):
    # Re(1/a) is tiny: the dual weights barely decay over the 50 terms
    # summed, so only the geometric bound on the omitted ones covers them
    rc, out, _ = run(capsys, "eval", "--a", a, "--w", "0")
    assert rc == 0
    report = _report(out)
    assert "n=50" in report["terms"]
    assert float(report["err_estimate"]) >= float(report["abs_error"]) > 0.1


GRID_A = ("1e-3", "0.05", "0.5", "5", "1000", "0.5+0.8j")
GRID_W = ("1e-300", "1e-15", "646", "648", "800", "1024", "1025", "1100.5", "1e5", "1e10")
# The generic route leaves out the dual terms, about exp(-pi^2 Re(1/a)),
# and its err_estimate does not count them; at these a that miss is
# the open router fault, so these answers are checked for finiteness only.
GRID_DUAL_MISS = {(a, w) for a in ("0.5", "5", "1000", "0.5+0.8j") for w in ("1e-300", "1e-15")}


def test_eval_grid_answers_or_refuses(capsys):
    # exponents next to 0 and past binary64's n^w, at small, large and
    # complex a: every call answers within its estimate or refuses
    start = time.perf_counter()
    answered = 0
    for method in ("auto", "direct", "generic"):
        for a in GRID_A:
            for w in GRID_W:
                case = (method, a, w)
                rc, out, err = run(capsys, "eval", "--a", a, "--w", w, "--method", method)
                assert rc in (0, 2, 3), (case, err)
                if rc != 0:
                    assert out == "" and err.startswith("error: "), case
                    continue
                answered += 1
                report = _report(out)
                value = complex(float(report["value_re"]), float(report["value_im"]))
                assert cmath.isfinite(value), case
                ref = direct_sum(SumSpec(complex(a), float(w)))
                if method == "direct":
                    assert value == ref.value, case
                elif (a, w) not in GRID_DUAL_MISS:
                    bound = float(report["err_estimate"]) + ref.noise_floor()
                    assert abs(value - ref.value) <= bound, case
    assert answered >= 90
    assert time.perf_counter() - start < 10.0


# ----------------------------------------------------------------------
# table1
# ----------------------------------------------------------------------


def test_table1_all_rows(capsys):
    rc, out, _ = run(capsys, "table1")
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 9  # header + 8 rows
    assert "binary64-noise" in out
    assert "0.369026" in out


def test_table1_row_restriction(capsys):
    rc, out, _ = run(capsys, "table1", "--rows", "0.75,2.00")
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert "0.475493" in out


def test_table1_unknown_row(capsys):
    rc, _, err = run(capsys, "table1", "--rows", "0.33")
    assert rc == 2
    assert "reference table" in err


def test_table1_unparsable_row(capsys):
    rc, out, err = run(capsys, "table1", "--rows", "abc")
    assert rc == 2
    assert out == ""
    assert "row a=abc" in err
    assert "reference table" in err


def test_table1_csv_output(tmp_path, capsys):
    target = tmp_path / "table.csv"
    rc, _, _ = run(capsys, "table1", "--csv", str(target))
    assert rc == 0
    rows = list(csv.reader(target.open()))
    assert rows[0][0] == "a"
    assert len(rows) == 9


def test_table1_unwritable_path(capsys):
    rc, out, err = run(capsys, "table1", "--rows", "2.00", "--csv", "/nonexistent-dir/x.csv")
    assert rc == 4
    assert out == ""
    assert "cannot write" in err


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------


def test_sweep_shape_and_header(tmp_path, capsys):
    target = tmp_path / "sweep.csv"
    rc, _, _ = run(
        capsys, "sweep", "--a", "1.0", "--w", "4", "--methods", "even", "--out", str(target)
    )
    assert rc == 0
    text = target.read_text().splitlines()
    assert text[0] == SWEEP_HEADER
    assert len(text) == 2
    assert len(text[1].split(",")) == 12


def test_sweep_cardinality(tmp_path, capsys):
    target = tmp_path / "sweep.csv"
    a_list = "0.10,0.20,0.25,0.50,0.75,1.00,1.50,2.00"
    rc, _, _ = run(capsys, "sweep", "--a", a_list, "--w", "4", "--methods", "even", "--out", str(target))
    assert rc == 0
    assert len(target.read_text().splitlines()) == 9


def test_sweep_complex_parameter_sector(tmp_path, capsys):
    target = tmp_path / "sweep.csv"
    rc, _, _ = run(capsys, "sweep", "--a", "0.5+0.3j", "--w", "4", "--methods", "even", "--out", str(target))
    assert rc == 0
    row = next(csv.DictReader(target.open()))
    assert float(row["abs_err_vs_oracle"]) <= 1e-9


def test_sweep_round_trip_17_digits(tmp_path, capsys):
    target = tmp_path / "sweep.csv"
    rc, _, _ = run(
        capsys,
        "sweep",
        "--a",
        "1.0,0.5",
        "--w",
        "4",
        "--methods",
        "even,direct",
        "--out",
        str(target),
    )
    assert rc == 0
    with target.open() as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            for key in ("value_re", "value_im", "err_estimate"):
                text = row[key]
                assert f"{float(text):.17g}" == text


def test_sweep_unwritable_path(capsys):
    rc, out, err = run(
        capsys, "sweep", "--a", "1.0", "--w", "4", "--out", "/nonexistent-dir/x.csv"
    )
    assert rc == 4
    assert out == ""
    assert "cannot write" in err


@pytest.mark.parametrize("a_list", ["1.0,-1.0", "", "1.0,", "1.0,inf", "nan"])
def test_sweep_bad_a_leaves_no_file(a_list, tmp_path, capsys):
    target = tmp_path / "s.csv"
    rc, out, err = run(capsys, "sweep", "--a", a_list, "--w", "4", "--methods", "even", "--out", str(target))
    assert rc == 2
    assert out == ""
    assert "precondition" in err
    assert not target.exists()


def test_sweep_unknown_method_lists_the_names(tmp_path, capsys):
    target = tmp_path / "s.csv"
    rc, _, err = run(capsys, "sweep", "--a", "1.0", "--w", "4", "--methods", "even,foo", "--out", str(target))
    assert rc == 2
    assert "'foo'" in err
    assert all(name in err for name in METHODS)
    assert not target.exists()


def test_sweep_rows_are_a_by_method(tmp_path, capsys):
    target = tmp_path / "s.csv"
    rc, out, _ = run(capsys, "sweep", "--a", "1.0,0.5", "--w", "4", "--methods", "even,direct", "--out", str(target))
    assert rc == 0
    assert out == f"wrote 4 rows to {target}\n"
    rows = list(csv.DictReader(target.open()))
    assert [(r["a_re"], r["method"]) for r in rows] == [
        ("1", "even"), ("1", "direct"), ("0.5", "even"), ("0.5", "direct")
    ]


def test_sweep_direct_row_sums_once(tmp_path, capsys, monkeypatch):
    # one direct sum per a, shared by every row of that a
    calls = []
    real = thetasum.engine.direct_sum

    def counting(spec, eps=1e-16):
        calls.append(spec.a)
        return real(spec, eps)

    monkeypatch.setattr(thetasum.engine, "direct_sum", counting)
    target = tmp_path / "s.csv"
    # methods, w, the indices of the direct rows
    for methods, w, direct_rows in (
        ("direct", "4", [0, 1]),
        ("even,direct", "4", [1, 3]),
        ("auto,generic", "2.5", []),
    ):
        calls.clear()
        rc, _, _ = run(capsys, "sweep", "--a", "1.0,0.5", "--w", w, "--methods", methods, "--out", str(target))
        assert rc == 0
        assert calls == [1.0, 0.5]
        rows = list(csv.DictReader(target.open()))
        assert len(rows) == 2 * len(methods.split(","))
        # a direct row is its own oracle
        assert [rows[i]["abs_err_vs_oracle"] for i in direct_rows] == ["0"] * len(direct_rows)
        assert "" not in [row["abs_err_vs_oracle"] for row in rows]


def test_sweep_direct_infeasible_exit_code(tmp_path, capsys):
    # a generic row before the direct one leaves the refused sum to it
    target = tmp_path / "s.csv"
    for methods in ("direct", "generic,direct", "direct,generic"):
        rc, _, err = run(capsys, "sweep", "--a", "1e-15", "--w", "0.5", "--methods", methods, "--out", str(target))
        assert rc == 3
        assert "expansion" in err
        assert not target.exists()


def test_sweep_method_mismatch_is_precondition(capsys, tmp_path):
    target = tmp_path / "s.csv"
    rc, _, err = run(
        capsys, "sweep", "--a", "1.0", "--w", "4", "--methods", "generic", "--out", str(target)
    )
    assert rc == 2
    assert "even" in err


@pytest.mark.parametrize("policy", ["optimal", "fixed:3"])
def test_eval_and_sweep_report_the_same_j0(policy, tmp_path, capsys):
    _, out, _ = run(capsys, "eval", "--a", "0.5", "--w", "4", "--method", "even", "--policy", policy)
    eval_j0 = next(int(line.split()[2]) for line in out.splitlines() if line.startswith("j0 j[n=1]"))
    target = tmp_path / "s.csv"
    run(capsys, "sweep", "--a", "0.5", "--w", "4", "--methods", "even", "--policy", policy, "--out", str(target))
    assert eval_j0 == int(next(csv.DictReader(target.open()))["j0"])


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------


def fail_lines(out):
    return [line for line in out.splitlines() if line.startswith("[FAIL]")]


@pytest.mark.parametrize("suite", ["specfun", "oracle", "engine", "appendix", "all"])
def test_verify_suites_pass(capsys, suite):
    rc, out, _ = run(capsys, "verify", "--suite", suite)
    assert not fail_lines(out), "\n".join(fail_lines(out))
    assert rc == 0
    assert "[PASS]" in out
    assert ", 0 failed\n" in out


def _scaled(original, rel):
    # original, its value scaled by 1 + rel(first argument)
    def mutant(x, *args, **kw):
        out = original(x, *args, **kw)
        if isinstance(out, float):
            return out * (1.0 + rel(x))
        if isinstance(out, tuple):  # an OracleResult
            return out._replace(value=out.value * (1.0 + rel(x)))
        out = copy.copy(out)  # an Evaluation
        out.value *= 1.0 + rel(x)
        return out

    return mutant


# one fault per family of checks, planted in a name that thetasum.verify
# calls, or in a route that its calls of evaluate reach in thetasum.engine:
# name -> (module, relative fault of its value, the (suite, check) pairs
# that fail, in report order).  remainder_slope sums through evaluate's
# generic route, so a generic fault fails two appendix checks as well.
VERIFY_MUTANTS = {
    "eval_generic": (
        thetasum.engine,
        lambda spec: 1e-9,
        [
            ("engine", "generic oracle equivalence (18-point grid)"),
            ("appendix", "remainder slope (w=3.0, N=3) ~ N"),
            ("appendix", "noise-floor guard raises (w=1.3, N=8)"),
        ],
    ),
    "eval_even": (
        thetasum.engine,
        lambda spec: 1e-8 if spec.a.imag else 0.0,
        [("engine", "sector validity |arg a| <= 1.2")],
    ),
    "zeta_real": (thetasum.verify, lambda s: 1e-12, [("specfun", "zeta(2), zeta(4) closed forms")]),
    "direct_sum": (
        thetasum.verify,
        lambda spec: -1e-4 if spec.a.real < 1e-3 else 0.0,
        [("oracle", "zeta limit w=6, a=1e-6")],
    ),
}


@pytest.mark.parametrize("name", sorted(VERIFY_MUTANTS))
def test_verify_names_the_check_a_fault_breaks(capsys, monkeypatch, name):
    module, rel, checks = VERIFY_MUTANTS[name]
    monkeypatch.setattr(module, name, _scaled(getattr(module, name), rel))
    rc, out, _ = run(capsys, "verify", "--suite", "all")
    assert rc == 1
    fails = fail_lines(out)
    assert len(fails) == len(checks), fails
    for line, (suite, check) in zip(fails, checks):
        assert line.startswith(f"[FAIL] {suite:<8} | {check:<44} | "), fails
    assert out.endswith(f", {len(checks)} failed\n")


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------


def test_stdout_deterministic(capsys):
    _, first, _ = run(capsys, "table1")
    _, second, _ = run(capsys, "table1")
    assert first == second
    _, e1, _ = run(capsys, "eval", "--a", "0.8", "--w", "4")
    _, e2, _ = run(capsys, "eval", "--a", "0.8", "--w", "4")
    assert e1 == e2


def test_timing_flag_adds_line(capsys):
    rc, out, _ = run(capsys, "--timing", "table1", "--rows", "1.00")
    assert rc == 0
    assert "elapsed_s" in out
