"""Print one repr line per case over a fixed seeded grid, for bit-identity diffs.

Run it on two checkouts and diff the outputs:

    PYTHONPATH=src python tools/repr_dump.py > after.txt
    PYTHONPATH=<other checkout>/src python tools/repr_dump.py > before.txt
    diff before.txt after.txt

A line holds the repr of everything a case returns, or the type and
message of its refusal.  The grid:

* every route (direct, generic, even, pj) at every (a, w) of the grid,
  under OPTIMAL, Fixed(3) and Fixed(8), with n_max None, 1 and 3 (the
  direct route ignores policy and n_max and runs once), each with a
  TermLog;
* ``tail_factor(a, m, n, policy)`` with its log, m in 1, 2, 4, 8 and
  n in 1, 2, 3, under the same policies;
* ``direct_sum`` at eps 1e-16 and 1e-10, with ``value.imag``.

The parameters a are real (log-uniform in [1e-3, 20]), the same x as
x - 0j, complex (|arg a| <= 1.5), subnormal, 1e200 and the eight W4
rows of the paper's Table 1.  A term log is printed as its entry count
and a BLAKE2b digest of the repr of its entries, which keeps a line
short while any moved magnitude still changes it.

``--points N`` takes the first N moduli of the seeded grid (default
125, about 68k lines); the grid does not depend on N otherwise.
"""

from __future__ import annotations

import argparse
import cmath
import hashlib
import math
import random
import sys

from thetasum import (
    OPTIMAL,
    Fixed,
    MethodChoice,
    SumSpec,
    TermLog,
    direct_sum,
    evaluate,
)
from thetasum.engine import tail_factor
from thetasum.reference import W4_ROWS

POLICIES = (OPTIMAL, Fixed(3), Fixed(8))
N_MAXES = (None, 1, 3)
#: The exponents each route takes: w = 0 for pj, w = 2m for even, and
#: non-integer, odd and near-odd w for generic; direct takes them all.
EXPONENTS = {
    MethodChoice.CLASSICAL_PJ: (0.0,),
    MethodChoice.EVEN_TRANSFORM: (2.0, 4.0, 6.0, 8.0, 16.0, 40.0, 140.0),
    MethodChoice.GENERIC: (0.5, 1.5, 2.98, 3.0, 5.25, 7.0, 13.5),
}
ALL_W = sorted(w for ws in EXPONENTS.values() for w in ws)
SPECIAL_A = (5e-324, 1e-310, 1e200, complex(1e200, -0.0), 1e200 + 1e199j)
SEED = 20261019


def a_grid(points: int) -> list[complex]:
    """The grid's parameters a: per modulus real, x - 0j and complex,
    then the special values and the W4 rows."""
    rng = random.Random(SEED)
    out: list[complex] = []
    for _ in range(points):
        x = math.exp(rng.uniform(math.log(1e-3), math.log(20.0)))
        arg = rng.uniform(-1.5, 1.5)
        out += [complex(x, 0.0), complex(x, -0.0), cmath.rect(x, arg)]
    out += [complex(a) for a in SPECIAL_A]
    out += [complex(row.a, 0.0) for row in W4_ROWS]
    return out


def _log_repr(log: TermLog) -> str:
    digest = hashlib.blake2b(repr(log.entries).encode(), digest_size=8).hexdigest()
    return f"log={len(log.entries)}:{digest}"


def _outcome(fn) -> str:
    log = TermLog()
    try:
        got = fn(log)
    except Exception as exc:  # noqa: BLE001 - a refusal is an outcome
        return f"{type(exc).__name__}: {exc}"
    return f"{got!r} {_log_repr(log)}"


def _evaluation(spec, method, policy, n_max):
    def run(log):
        ev = evaluate(spec, method, policy, n_max, log=log)
        return (ev.value, ev.method.value, ev.terms_used, ev.err_estimate, ev.near_odd_warning)

    return _outcome(run)


def _direct_sum(spec, eps):
    def run(log):
        res = direct_sum(spec, eps)
        return res, repr(res.value.imag)

    return _outcome(run)


def lines(points: int):
    """Yield the dump's lines for the first ``points`` moduli."""
    grid = a_grid(points)
    for a in grid:
        for w in ALL_W:
            spec = SumSpec(a, w)
            yield f"route direct a={a!r} w={w!r} | {_evaluation(spec, MethodChoice.DIRECT, OPTIMAL, None)}"
        for method, exponents in EXPONENTS.items():
            for w in exponents:
                spec = SumSpec(a, w)
                for policy in POLICIES:
                    # the generic route ignores n_max
                    for n_max in (None,) if method is MethodChoice.GENERIC else N_MAXES:
                        head = f"route {method.value} a={a!r} w={w!r} {policy!r} n_max={n_max}"
                        yield f"{head} | {_evaluation(spec, method, policy, n_max)}"
    for a in grid:
        for m in (1, 2, 4, 8):
            for n in (1, 2, 3):
                for policy in POLICIES:
                    got = _outcome(lambda log: tail_factor(a, m, n, policy, log=log))
                    yield f"tail_factor a={a!r} m={m} n={n} {policy!r} | {got}"
    for a in grid:
        for w in ALL_W:
            for eps in (1e-16, 1e-10):
                yield f"direct_sum a={a!r} w={w!r} eps={eps!r} | {_direct_sum(SumSpec(a, w), eps)}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--points", type=int, default=125, help="moduli of the seeded grid (default 125)")
    args = parser.parse_args(argv)
    out = sys.stdout
    for line in lines(args.points):
        out.write(line + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
