"""Command-line front end: a thin shell over ``engine.evaluate``, the
one way it reaches a route, the direct sum included.

Subcommands:

* ``eval``   -- single-point evaluation with oracle cross-check
* ``table1`` -- reproduce the quartic-case reference error table
* ``sweep``  -- parameter sweep to CSV, one row per (a, method)
* ``verify`` -- run the verification suites

A method is ``auto`` or the value of a ``MethodChoice``; ``auto`` is
the classical identity at w = 0, the even transformation at even
integer w and the generic expansion otherwise.  Every input is
checked before the first line of output is written, so a rejected
input prints nothing and leaves no file (``table1`` writes its CSV
before it prints).  The oracle is the direct route; a sweep sums each
a's oracle once, and a ``direct`` row is that oracle.

Exit codes: 0 success, 1 failed verification check, 2 precondition
violation, 3 direct summation infeasible, 4 unwritable output path.
Data output carries no timestamps; timing appears only with --timing,
so identical invocations produce byte-identical stdout.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import math
import sys
import time
from typing import Optional, Union

from .engine import EVEN, classify_exponent, evaluate
from .errors import ConvergenceError, DomainError, PrecisionError, ThetaSumError
from .model import (
    OPTIMAL,
    Evaluation,
    Fixed,
    MethodChoice,
    SumSpec,
    TermLog,
    TruncationPolicy,
)
from .reference import W4_ROWS, ReferenceRow
from .verify import SUITE_NAMES, run_suite

#: every name a ``--method`` / ``--methods`` option accepts
METHODS = ("auto", *(m.value for m in MethodChoice))

_SWEEP_HEADER = (
    "a_re,a_im,w,method,value_re,value_im,err_estimate,"
    "abs_err_vs_oracle,terms_k,terms_j,terms_n,j0"
)


def _parse_complex(text: str) -> complex:
    try:
        z = complex(text.strip())
    except ValueError as exc:
        raise DomainError(f"cannot parse {text!r} as a number (use RE or RE+IMj)") from exc
    if not cmath.isfinite(z):
        raise DomainError(f"parameter a must be finite, got {z}")
    return z


def _parse_policy(text: str) -> TruncationPolicy:
    t = text.strip().lower()
    if t in ("optimal", "opt"):
        return OPTIMAL
    if t.startswith("fixed:"):
        try:
            return Fixed(int(t.split(":", 1)[1]))
        except ValueError as exc:
            raise DomainError(f"bad fixed policy {text!r} (use fixed:N)") from exc
    raise DomainError(f"unknown policy {text!r} (optimal | fixed:N)")


def _resolve_method(name: str, w: float) -> MethodChoice:
    if name == "auto":
        if w == 0.0:
            return MethodChoice.CLASSICAL_PJ
        return MethodChoice.EVEN_TRANSFORM if classify_exponent(w)[0] == EVEN else MethodChoice.GENERIC
    try:
        return MethodChoice(name)
    except ValueError:
        raise DomainError(f"unknown method {name!r} ({' | '.join(METHODS)})") from None


def _g17(x: float) -> str:
    return f"{x:.17g}"


def _tail_j0(ev: Evaluation) -> dict[str, int]:
    """j0 of each tail-factor series, keyed by series name: the last
    included index, the least-term index under optimal truncation.
    The log of a tail factor ends with its first omitted term; ``ev``
    must come from a route that was passed a log.  The n = 1 series
    alone needs no log: its j0 is ``terms_used["j"] - 1``."""
    j0 = {}
    for name, index, _ in ev.term_log.entries:
        if name.startswith("j["):
            j0[name] = index - 1
    return j0


def _oracle(spec: SumSpec, eps: float) -> Union[Evaluation, ConvergenceError, PrecisionError]:
    """The direct route's Evaluation at ``eps``, or the refusal it
    raised: too many terms, or a term's n^w past binary64."""
    try:
        return evaluate(spec, MethodChoice.DIRECT, eps=eps)
    except (ConvergenceError, PrecisionError) as exc:
        return exc


# ----------------------------------------------------------------------
# eval
# ----------------------------------------------------------------------


def _cmd_eval(args: argparse.Namespace) -> int:
    spec = SumSpec(_parse_complex(args.a), args.w)
    method = _resolve_method(args.method, spec.w)
    policy = _parse_policy(args.policy)
    ev = evaluate(spec, method, policy, eps=args.eps, log=TermLog())
    ref = None if method is MethodChoice.DIRECT else _oracle(spec, args.eps)
    print(f"method        {method.value}")
    print(f"value_re      {_g17(ev.value.real)}")
    print(f"value_im      {_g17(ev.value.imag)}")
    print(f"err_estimate  {ev.err_estimate:.6e}")
    terms = " ".join(f"{k}={v}" for k, v in sorted(ev.terms_used.items()))
    print(f"terms         {terms}")
    for name, j0 in _tail_j0(ev).items():
        print(f"j0 {name:<10} {j0}")
    if ev.near_odd_warning:
        print("warning       w is within 0.05 of an odd integer: expect cancellation,")
        print("              accuracy guarantees void in this band")
    if isinstance(ref, Evaluation):
        print(f"oracle_re     {_g17(ref.value.real)}")
        print(f"oracle_im     {_g17(ref.value.imag)}")
        print(f"oracle_noise  {ref.err_estimate:.6e}")
        print(f"abs_error     {abs(ev.value - ref.value):.6e}")
    elif ref is not None:
        print("oracle        infeasible (direct summation refused at this eps)")
    return 0


# ----------------------------------------------------------------------
# table1
# ----------------------------------------------------------------------


def _select_rows(text: Optional[str]) -> list[ReferenceRow]:
    if not text:
        return list(W4_ROWS)
    chosen = []
    for part in text.split(","):
        try:
            want = float(part)
        except ValueError:
            want = math.nan  # matches no row
        for row in W4_ROWS:
            if abs(row.a - want) < 1e-9:
                chosen.append(row)
                break
        else:
            known = ", ".join(f"{r.a:g}" for r in W4_ROWS)
            raise DomainError(f"row a={part.strip()} is not in the reference table ({known})")
    return chosen


def _cmd_table1(args: argparse.Namespace) -> int:
    rows = _select_rows(args.rows)
    lines = [f"{'a':>6}  {'S_direct':>10}  {'S_transform':>12}  {'abs_error':>10}  {'ref_error':>10}  {'j0':>4}  {'ref_j0':>6}  flag"]
    csv_rows = [["a", "s_direct", "s_transform", "abs_error", "ref_error", "j0", "ref_j0", "flag"]]
    for row in rows:
        spec = SumSpec(row.a, 4.0)
        ref = evaluate(spec, MethodChoice.DIRECT)
        ev = evaluate(spec, MethodChoice.EVEN_TRANSFORM, OPTIMAL, n_max=1)
        err = abs(ev.value - ref.value)
        # the n = 1 tail factor's last included index; no log needed
        j0 = ev.terms_used["j"] - 1
        flag = "ok" if row.reachable else "binary64-noise"
        lines.append(
            f"{row.a:>6.2f}  {ref.value.real:>10.6f}  {ev.value.real:>12.6f}  "
            f"{err:>10.3e}  {row.abs_err:>10.3e}  {j0:>4d}  {row.j0:>6d}  {flag}"
        )
        csv_rows.append(
            [
                _g17(row.a),
                _g17(ref.value.real),
                _g17(ev.value.real),
                _g17(err),
                _g17(row.abs_err),
                j0,
                row.j0,
                flag,
            ]
        )
    # the file first, so an unwritable path prints nothing
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            csv.writer(fh).writerows(csv_rows)
    print("\n".join(lines))
    return 0


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------


def _sweep_rows(
    spec: SumSpec, methods: list[MethodChoice], policy: TruncationPolicy, eps: float
) -> list[list[str]]:
    """The rows of one a, one per method in order, sharing one direct
    sum: the first row made runs ``_oracle`` after its own route, and a
    direct row is that Evaluation.  Where the direct sum is
    refused, a direct row raises the refusal again and the other rows
    leave the oracle column empty."""
    ref = None  # the direct Evaluation, or the refusal it raised
    rows = []
    for method in methods:
        ev = None if method is MethodChoice.DIRECT else evaluate(spec, method, policy, eps=eps)
        if ref is None:
            ref = _oracle(spec, eps)
        if ev is None:
            if isinstance(ref, Exception):
                raise ref
            ev = ref
        used = ev.terms_used
        terms_k, terms_j, terms_n = (str(used[key]) if key in used else "" for key in ("k", "j", "n"))
        rows.append([
            _g17(spec.a.real),
            _g17(spec.a.imag),
            _g17(spec.w),
            method.value,
            _g17(ev.value.real),
            _g17(ev.value.imag),
            _g17(ev.err_estimate),
            "" if isinstance(ref, Exception) else _g17(abs(ev.value - ref.value)),
            terms_k,
            terms_j,
            terms_n,
            # j0 of the n = 1 tail factor; j is 0 (or absent) when none ran
            str(used["j"] - 1) if used.get("j") else "",
        ])
    return rows


def _cmd_sweep(args: argparse.Namespace) -> int:
    methods = [_resolve_method(name.strip().lower(), args.w) for name in args.methods.split(",")]
    specs = [SumSpec(_parse_complex(part), args.w) for part in args.a.split(",")]
    policy = _parse_policy(args.policy)
    rows = [row for spec in specs for row in _sweep_rows(spec, methods, policy, args.eps)]
    with open(args.out, "w", newline="") as fh:
        fh.write(_SWEEP_HEADER + "\n")
        csv.writer(fh, lineterminator="\n").writerows(rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------


def _cmd_verify(args: argparse.Namespace) -> int:
    results = run_suite(args.suite)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.suite:<8} | {r.name:<44} | measured={r.measured:.6g} | bound: {r.bound}")
        failed += 0 if r.passed else 1
    print(f"{len(results)} checks, {failed} failed")
    return 0 if failed == 0 else 1


# ----------------------------------------------------------------------
# parser / entry point
# ----------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thetasum",
        description="Evaluate sum_{n>=1} exp(-a n^2)/n^w by direct summation or expansion",
    )
    parser.add_argument("--timing", action="store_true", help="print elapsed wall time")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="single-point evaluation")
    p_eval.add_argument("--a", required=True, help="Gaussian parameter, RE or RE+IMj, Re(a) > 0")
    p_eval.add_argument("--w", required=True, type=float, help="algebraic exponent w")
    p_eval.add_argument(
        "--method",
        default="auto",
        choices=METHODS,
        help="evaluation route (auto: pj at w = 0, even at even integer w, else generic)",
    )
    p_eval.add_argument("--policy", default="optimal", help="optimal | fixed:N")
    p_eval.add_argument("--eps", default=1e-16, type=float, help="oracle tolerance")
    p_eval.set_defaults(func=_cmd_eval)

    p_table = sub.add_parser("table1", help="reproduce the quartic-case reference error table")
    p_table.add_argument("--rows", default=None, help="comma list of a values to restrict to")
    p_table.add_argument("--csv", default=None, help="also write the table to this CSV path")
    p_table.set_defaults(func=_cmd_table1)

    p_sweep = sub.add_parser("sweep", help="parameter sweep to CSV")
    p_sweep.add_argument("--a", required=True, help="comma list of a values (RE or RE+IMj)")
    p_sweep.add_argument("--w", required=True, type=float)
    p_sweep.add_argument("--methods", default="auto", help="comma list: " + ",".join(METHODS))
    p_sweep.add_argument("--policy", default="optimal")
    p_sweep.add_argument("--eps", default=1e-16, type=float)
    p_sweep.add_argument("--out", required=True, help="output CSV path")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the verification suites")
    p_verify.add_argument("--suite", default="all", choices=list(SUITE_NAMES))
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        rc = args.func(args)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ThetaSumError as exc:
        print(f"error: precondition violated: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 4
    if args.timing:
        print(f"elapsed_s {time.perf_counter() - start:.3f}")
    return rc


if __name__ == "__main__":
    sys.exit(main())
