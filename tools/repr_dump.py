"""Print one repr line per case over a fixed seeded grid, for bit-identity diffs.

Run it on two checkouts and diff the outputs:

    PYTHONPATH=src python tools/repr_dump.py > after.txt
    PYTHONPATH=<other checkout>/src python tools/repr_dump.py > before.txt
    diff before.txt after.txt

A line holds the repr of everything a case returns, or the type and
message of its refusal.  The grid:

* every route (direct, generic, even, pj) at every (a, w) of the grid,
  under OPTIMAL, Fixed(3) and Fixed(8), with n_max None, 1 and 3 (the
  direct route ignores policy and n_max and runs once);
* ``tail_factor(a, m, n, policy)``, m in 1, 2, 4, 8 and n in 1, 2, 3,
  under the same policies;
* ``direct_sum`` at eps 1e-16 and 1e-10, with ``value.imag``;
* the special functions, on a grid of their own that ``--points``
  does not touch: ``gamma_real`` at seeded x in [-170, 172], at
  poles and 1e-13 and 1e-11 either side of them, and at 171.5 to 172,
  where binary64 ends; ``zeta_real`` at seeded s in [-170, 90] and next to s = 0,
  s = 1 and the trivial zeros; the engine's Euler-Maclaurin
  ``_zeta_gt1`` at seeded s > 1; ``digamma_int(m)`` for m = 0..170.

A route or ``tail_factor`` case runs twice and prints two lines: first
with a TermLog, then without one, the path that table1, sweep and
most callers take.  The second line starts with ``nolog``, or with
``NOLOG-DIFFERS`` when its outcome is not the logged run's.

The parameters a are real (log-uniform in [1e-3, 20]), the same x as
x - 0j, complex (|arg a| <= 1.5), subnormal, 1e200 and the eight W4
rows of the paper's Table 1.  A term log is printed as its entry count
and a BLAKE2b digest of the repr of its entries, which keeps a line
short while any moved magnitude still changes it.

``--points N`` takes the first N moduli of the seeded grid (default
125, 124,831 lines); the grid does not depend on N otherwise.

``--digest`` prints one line per section in place of the lines: the
section, its line count and a BLAKE2b digest of its lines.  A section
is a route, ``tail_factor`` or ``direct_sum`` at one kind of a (real,
real with imaginary part -0.0, or complex), or one special function.
A moved value then names its section, and the full dump's diff finds
its line.  ``tests/golden/repr_digest.txt`` is the digest at
``--points 10``; regenerate it for a change that is meant to move a
value with

    PYTHONPATH=src python tools/repr_dump.py --digest --points 10 > tests/golden/repr_digest.txt
"""

from __future__ import annotations

import argparse
import cmath
import hashlib
import math
import random
import sys
from collections import Counter, defaultdict

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
from thetasum.specfun import _zeta_gt1, digamma_int, gamma_real, zeta_real

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
#: Starts a no-log line whose outcome is not the logged run's.
NOLOG_DIFFERS = "NOLOG-DIFFERS"


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


def _run(fn, log) -> tuple[str, bool]:
    # (the repr of what fn returns, True) or (its refusal, False)
    try:
        return repr(fn(log)), True
    except Exception as exc:  # noqa: BLE001 - a refusal is an outcome
        return f"{type(exc).__name__}: {exc}", False


def _case(head: str, fn):
    """Yield the case's two lines: ``fn(log)`` run with a TermLog, then
    with None, marked when the two outcomes differ."""
    log = TermLog()
    logged, answered = _run(fn, log)
    yield f"{head} | {logged} {_log_repr(log)}" if answered else f"{head} | {logged}"
    plain, _ = _run(fn, None)
    yield f"{'nolog' if plain == logged else NOLOG_DIFFERS} {head} | {plain}"


def _evaluation(spec, method, policy, n_max):
    def run(log):
        ev = evaluate(spec, method, policy, n_max, log=log)
        return (ev.value, ev.method.value, ev.terms_used, ev.err_estimate, ev.near_odd_warning)

    return run


def _direct_sum(spec, eps) -> str:
    # direct_sum takes no log: one line, with an empty log's digest
    def run(log):
        res = direct_sum(spec, eps)
        return res, repr(res.value.imag)

    got, answered = _run(run, None)
    return f"{got} {_log_repr(TermLog())}" if answered else got


def specfun_arguments() -> tuple[list[float], list[float]]:
    """The x of ``gamma_real`` and the s of ``zeta_real`` in the dump."""
    rng = random.Random(SEED)
    xs = [rng.uniform(-170.0, 172.0) for _ in range(400)] + [rng.uniform(-3.0, 5.0) for _ in range(100)]
    for k in (0.0, -1.0, -2.0, -7.0, -170.0):
        xs += [k, k - 1e-13, k + 1e-13, k - 1e-11, k + 1e-11]
    xs += [0.5, 1.0, 2.0, 171.5, 171.62, 171.63, 172.0]
    ss = [rng.uniform(-170.0, 90.0) for _ in range(400)]
    ss += [rng.uniform(-1.0 / 64.0, 1.0 / 64.0) for _ in range(20)]
    ss += [0.0, 1.0 / 64.0, -1.0 / 64.0, 0.5, -0.5, 1.0 - 1e-13, 1.0 + 1e-11, 1.0 - 1e-6, 1.0 + 1e-6, 2.0]
    ss += [-2.0, -4.0, -168.0, -2.0 + 1e-9, -169.5, -170.0, -170.5, -172.0]
    return xs, ss


def zeta_gt1_arguments() -> list[float]:
    """The s of ``_zeta_gt1`` in the dump: seeded s - 1 log-uniform in
    [1e-12, 2000], where the engine's row takes it, then the k0 entry's
    band (1, 3] and a few fixed points."""
    rng = random.Random(SEED + 1)
    ss = [1.0 + math.exp(rng.uniform(math.log(1e-12), math.log(2000.0))) for _ in range(200)]
    ss += [rng.uniform(1.0, 3.0) for _ in range(100)]
    return ss + [1.0 + 2.0**-52, 1.5, 2.0, 3.0, 41.0, 1000.5]


def _specfun_lines():
    xs, ss = specfun_arguments()
    for x in xs:
        yield "specfun gamma_real", f"specfun gamma_real x={x!r} | {_run(lambda _: gamma_real(x), None)[0]}"
    for s in ss:
        yield "specfun zeta_real", f"specfun zeta_real s={s!r} | {_run(lambda _: zeta_real(s), None)[0]}"
    for s in zeta_gt1_arguments():
        yield "specfun _zeta_gt1", f"specfun _zeta_gt1 s={s!r} | {_zeta_gt1(s)!r}"
    for m in range(171):
        yield "specfun digamma_int", f"specfun digamma_int m={m} | {digamma_int(m)!r}"


def _kind(a: complex) -> str:
    # the digest's kind of a
    if a.imag:
        return "complex"
    return "real-0j" if math.copysign(1.0, a.imag) < 0.0 else "real"


def sectioned_lines(points: int):
    """Yield (section, line) for each of the dump's lines for the first
    ``points`` moduli."""
    grid = a_grid(points)
    for a in grid:
        kind = _kind(a)
        for w in ALL_W:
            spec = SumSpec(a, w)
            head = f"route direct a={a!r} w={w!r}"
            for line in _case(head, _evaluation(spec, MethodChoice.DIRECT, OPTIMAL, None)):
                yield f"route direct {kind}", line
        for method, exponents in EXPONENTS.items():
            section = f"route {method.value} {kind}"
            for w in exponents:
                spec = SumSpec(a, w)
                for policy in POLICIES:
                    # the generic route ignores n_max
                    for n_max in (None,) if method is MethodChoice.GENERIC else N_MAXES:
                        head = f"route {method.value} a={a!r} w={w!r} {policy!r} n_max={n_max}"
                        for line in _case(head, _evaluation(spec, method, policy, n_max)):
                            yield section, line
    for a in grid:
        section = f"tail_factor {_kind(a)}"
        for m in (1, 2, 4, 8):
            for n in (1, 2, 3):
                for policy in POLICIES:
                    head = f"tail_factor a={a!r} m={m} n={n} {policy!r}"
                    for line in _case(head, lambda log: tail_factor(a, m, n, policy, log=log)):
                        yield section, line
    for a in grid:
        section = f"direct_sum {_kind(a)}"
        for w in ALL_W:
            for eps in (1e-16, 1e-10):
                yield section, f"direct_sum a={a!r} w={w!r} eps={eps!r} | {_direct_sum(SumSpec(a, w), eps)}"
    yield from _specfun_lines()


def digest_lines(points: int):
    """Yield one line per section, in order of first appearance: the
    section, its line count and the BLAKE2b digest of its lines."""
    counts: Counter[str] = Counter()
    digests = defaultdict(lambda: hashlib.blake2b(digest_size=16))
    for section, line in sectioned_lines(points):
        counts[section] += 1
        digests[section].update(line.encode() + b"\n")
    for section, digest in digests.items():
        yield f"{section} | lines={counts[section]} blake2b={digest.hexdigest()}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--points", type=int, default=125, help="moduli of the seeded grid (default 125)")
    parser.add_argument("--digest", action="store_true", help="print one digest line per section")
    args = parser.parse_args(argv)
    if args.digest:
        out = digest_lines(args.points)
    else:
        out = (line for _, line in sectioned_lines(args.points))
    for line in out:
        sys.stdout.write(line + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
