"""The benchmark workloads: seeded inputs, the timed op, and its check.

A workload is an endless stream of independent ops served by one caller
in a closed loop.  ``inputs(seed)`` yields the op inputs (the same seed
gives the same stream); ``op(x)`` is the timed call into the library and
returns ``(evaluation, oracle_result_or_None)``; ``check(x, answer)``
runs outside the timed region and returns a ``Verdict``.  ``run_loop``
is the closed loop and ``check_all`` the check pass over its records.

The timed streams of sweep and scatter stay inside the domain where the
library's answers meet the 1e-10 check (see ``accurate``), so that an
op that fails there is a regression.  ``audit(seed)`` yields the same
kind of op over the whole input range, the known faults included; the
run checks a fixed number of those outside the timed region and reports
how many fail.

Every library call goes through an attribute of ``thetasum.engine``
(``engine.direct_sum`` included), so the traced run can rebind those
names and see every layer boundary (see layers.py).
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
import time
from array import array
from collections import Counter
from typing import Any, Callable, Iterator, NamedTuple, Optional

from thetasum import engine
from thetasum.model import OPTIMAL, MethodChoice, SumSpec
from thetasum.reference import W4_ROWS, ReferenceRow

#: A timed loop runs at least this many ops, so that at least ten latency
#: samples lie beyond p99.
MIN_OPS = 1100

#: Relative tolerance of the sweep and scatter cross-check against direct_sum.
REL_TOL = 1e-10

#: Table-1 noise rows must agree with the oracle to this absolute error.
NOISE_ROW_TOL = 1e-13

#: An answer is a quiet miss when its true error exceeds this multiple of
#: its err_estimate plus the oracle noise floor.
MISS_FACTOR = 10.0

#: The accurate domain of the timed streams.  Re(1/a) >= DUAL_RE_MIN
#: puts the weight exp(-pi^2 Re(1/a)) of the dual terms the generic route
#: leaves out below 1e-17, and also keeps the even route away from large
#: |a|, where routing on w alone gives wrong answers.  Non-integer w stays
#: ODD_GAP away from every odd integer: closer in, the generic route
#: loses the 1e-10 accuracy for some a.  w = 0, which the generic route
#: refuses, is left out.  Outside this domain the known faults live; the
#: audit measures them.
DUAL_RE_MIN = 4.0
ODD_GAP = 0.25

# sweep: |a| on a log grid over SWEEP_A_RANGE (the audit: over
# SWEEP_AUDIT_A_RANGE), shifted by a fresh seeded offset (a fraction of
# one grid step) on every pass.  0.2 is the largest |a| whose Re(1/a) at
# arg 0.4 is at least DUAL_RE_MIN.
SWEEP_W = (0.5, 1.5, 3.0, 5.25)
SWEEP_ARGS = (0.0, 0.4)
SWEEP_POINTS = 40
SWEEP_A_RANGE = (1e-4, 0.2)
SWEEP_AUDIT_A_RANGE = (1e-4, 0.5)

# scatter: |a| log-uniform, arg a uniform, and the w mix of the issue;
# the timed stream keeps the draws that fall in the accurate domain.
SCATTER_A_RANGE = (1e-3, 4.0)
SCATTER_ARG = 1.4
SCATTER_EVEN_W = (2.0, 4.0, 6.0, 8.0)
SCATTER_ODD_W = (1.0, 3.0, 5.0, 7.0)
SCATTER_REAL_W = (0.1, 8.0)


class Answer(NamedTuple):
    """What the run keeps of one answered op (the Evaluation is dropped)."""

    value: complex
    err_estimate: float
    j_used: Optional[int]
    ref_value: Optional[complex]
    ref_floor: Optional[float]


class Verdict(NamedTuple):
    passed: bool  # met the workload's accuracy check
    miss: bool  # true error above MISS_FACTOR * err_estimate + oracle floor
    decisive: bool  # the reference is fine enough to decide the check


class Workload(NamedTuple):
    name: str
    inputs: Callable[[int], Iterator[Any]]
    op: Callable[[Any], tuple]
    check: Callable[[Any, Answer], Verdict]
    audit: Optional[Callable[[int], Iterator[Any]]] = None


def accurate(spec: SumSpec) -> bool:
    """True when (a, w) lies in the accurate domain (see DUAL_RE_MIN)."""
    w = spec.w
    if w == 0.0 or (1.0 / spec.a).real < DUAL_RE_MIN:
        return False
    return w == round(w) or min(abs(w - odd) for odd in range(1, 11, 2)) >= ODD_GAP


def keep(out: tuple) -> Answer:
    ev, ref = out
    return Answer(
        ev.value,
        ev.err_estimate,
        ev.terms_used.get("j"),
        None if ref is None else ref.value,
        None if ref is None else ref.noise_floor(),
    )


def _relative_verdict(answer: Answer, ref_value: complex, ref_floor: float) -> Verdict:
    err = abs(answer.value - ref_value)
    tol = REL_TOL * abs(ref_value)
    return Verdict(
        passed=err <= tol,
        miss=err > MISS_FACTOR * answer.err_estimate + ref_floor,
        decisive=ref_floor < tol,
    )


# ----------------------------------------------------------------------
# table1: the paper's Table 1 rows (w = 4, m = 2), as `thetasum table1`
# ----------------------------------------------------------------------


def table1_inputs(seed: int) -> Iterator[ReferenceRow]:
    # The rows are fixed by the paper; the seed has nothing to vary.
    return itertools.cycle(W4_ROWS)


def table1_op(row: ReferenceRow) -> tuple:
    spec = SumSpec(row.a, 4.0)
    ref = engine.direct_sum(spec)
    return engine.eval_even(spec, 2, OPTIMAL, n_max=1), ref


def table1_check(row: ReferenceRow, answer: Answer) -> Verdict:
    """Acceptance criteria 1-3: error within a factor of 2 of the
    reference on reachable rows, <= 1e-13 on noise rows, S to 6
    decimals, least-term index within +-2."""
    err = abs(answer.value - answer.ref_value)
    if row.reachable:
        err_ok = 0.5 <= err / row.abs_err <= 2.0
        tol = 0.5 * row.abs_err
    else:
        err_ok = err <= NOISE_ROW_TOL
        tol = NOISE_ROW_TOL
    passed = (
        err_ok
        and f"{answer.ref_value.real:.6f}" == f"{row.value:.6f}"
        and abs(answer.j_used - 1 - row.j0) <= 2
    )
    return Verdict(
        passed=passed,
        miss=err > MISS_FACTOR * answer.err_estimate + answer.ref_floor,
        decisive=answer.ref_floor < tol,
    )


# ----------------------------------------------------------------------
# sweep: the generic route on a shifted small-a grid at four exponents
# ----------------------------------------------------------------------


def sweep_inputs(seed: int, a_range: tuple[float, float] = SWEEP_A_RANGE) -> Iterator[SumSpec]:
    rng = random.Random(seed)
    lo = math.log(a_range[0])
    step = (math.log(a_range[1]) - lo) / SWEEP_POINTS
    offsets: set[float] = set()
    while True:
        u = rng.random()
        if u in offsets:
            continue
        offsets.add(u)
        grid = [
            SumSpec(cmath.rect(math.exp(lo + (i + u) * step), arg), w)
            for i in range(SWEEP_POINTS)
            for w in SWEEP_W
            for arg in SWEEP_ARGS
        ]
        # a run ends mid-pass; shuffling keeps that last pass unbiased in |a|
        rng.shuffle(grid)
        yield from grid


def sweep_audit(seed: int) -> Iterator[SumSpec]:
    return sweep_inputs(seed, SWEEP_AUDIT_A_RANGE)


def sweep_op(spec: SumSpec) -> tuple:
    return engine.evaluate(spec, MethodChoice.GENERIC), None


def sweep_check(spec: SumSpec, answer: Answer) -> Verdict:
    ref = engine.direct_sum(spec)
    return _relative_verdict(answer, ref.value, ref.noise_floor())


# ----------------------------------------------------------------------
# scatter: independent requests served like `thetasum eval --method auto`
# ----------------------------------------------------------------------


def scatter_inputs(seed: int) -> Iterator[SumSpec]:
    return filter(accurate, scatter_audit(seed))


def scatter_audit(seed: int) -> Iterator[SumSpec]:
    rng = random.Random(seed)
    lo, hi = (math.log(x) for x in SCATTER_A_RANGE)
    seen: set[tuple[complex, float]] = set()
    while True:
        a = cmath.rect(math.exp(rng.uniform(lo, hi)), rng.uniform(-SCATTER_ARG, SCATTER_ARG))
        pick = rng.random()
        if pick < 0.25:
            w = rng.choice(SCATTER_EVEN_W)
        elif pick < 0.375:
            w = rng.choice(SCATTER_ODD_W)
        elif pick < 0.4:
            w = 0.0
        else:
            w = rng.uniform(*SCATTER_REAL_W)
        if (a, w) in seen:
            continue
        seen.add((a, w))
        yield SumSpec(a, w)


def auto_method(w: float) -> MethodChoice:
    """The CLI's `--method auto` rule at the commit that defined this
    benchmark: the even transformation for even-integer w, generic
    otherwise.  A copy, because the CLI's helper is private; a change
    to the auto rule updates this copy in a benchmark-only change."""
    m = round(w / 2.0)
    if m >= 1 and abs(w - 2.0 * m) <= 1e-9:
        return MethodChoice.EVEN_TRANSFORM
    return MethodChoice.GENERIC


def scatter_op(spec: SumSpec) -> tuple:
    ev = engine.evaluate(spec, auto_method(spec.w), OPTIMAL, eps=1e-16)
    return ev, engine.direct_sum(spec, 1e-16)


def scatter_check(spec: SumSpec, answer: Answer) -> Verdict:
    return _relative_verdict(answer, answer.ref_value, answer.ref_floor)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("table1", table1_inputs, table1_op, table1_check),
        Workload("sweep", sweep_inputs, sweep_op, sweep_check, sweep_audit),
        Workload("scatter", scatter_inputs, scatter_op, scatter_check, scatter_audit),
    )
}


# ----------------------------------------------------------------------
# the closed loop and the check
# ----------------------------------------------------------------------


def run_loop(
    workload: Workload, inputs: Iterator[Any], seconds: float, min_ops: int = 0,
    tracer=None, first_op: int = 0,
):
    """Send ops back to back for ``seconds`` (and at least ``min_ops``).

    Returns (records, latencies_ns, wall_ns).  A record is (input,
    Answer) for an answered op, or (input, exception type name) for one
    that raised; the op's Evaluation is dropped as soon as it is timed.
    ``first_op`` numbers the ops for the tracer when a run is made of
    several loops.
    """
    op = workload.op
    clock = time.perf_counter_ns
    records: list[tuple[Any, Any]] = []
    latencies = array("q")
    t0 = clock()
    deadline = t0 + int(seconds * 1e9)
    end = t0
    while end < deadline or len(records) < min_ops:
        x = next(inputs)
        if tracer is not None:
            tracer.op = first_op + len(records)
        start = clock()
        try:
            out = op(x)
        except Exception as exc:  # a failing op is counted, never fatal
            end = clock()
            records.append((x, type(exc).__name__))
        else:
            end = clock()
            records.append((x, keep(out)))
        latencies.append(end - start)
    return records, latencies, end - t0


def check_all(workload: Workload, records, tracer=None) -> Counter:
    """Check every record, outside any timed region.

    Counts attempted, answered, passed, missed (quiet misses) and
    undecided ops, and ``raised <ExceptionType>`` per exception type.
    """
    tally = Counter(attempted=len(records))
    for i, (x, answer) in enumerate(records):
        if isinstance(answer, str):
            tally[f"raised {answer}"] += 1
            continue
        if tracer is not None:
            tracer.op = ~i
        verdict = workload.check(x, answer)
        tally["answered"] += 1
        tally["passed"] += verdict.passed
        tally["missed"] += verdict.miss
        tally["undecided"] += not verdict.decisive
    return tally
