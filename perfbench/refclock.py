"""Reference clock: timed figures in seconds of a fixed reference speed.

On a shared host the speed one process gets drifts by tens of percent
over seconds to minutes (neighbours on the same cores, caches and
memory), so two runs of the same code minutes apart disagree by more
than most optimisations change.  The benchmark therefore interleaves
short slices of a fixed pure-Python reference unit with the slices it
measures, and rescales every measured wall time by the reference speed
seen around it:

    reference time = wall time * (reference rate now / REF_RATE)

A slice that ran while the host was 20% slow also ran its reference
units 20% slow, so its reference time stays put.  The reference unit
uses only the interpreter and ``cmath`` (complex arithmetic and
exponentials, method calls, small allocations), the same kind of work
as the library's series, and nothing from ``thetasum``, so a change to
the library never moves it.
The raw wall-clock figures are reported next to the rescaled ones.
"""

from __future__ import annotations

import cmath
import time

#: Reference units per second that define one reference second: the
#: median rate on the 2-vCPU Intel Xeon host the baseline was recorded
#: on (CPython 3.11), so reference seconds read close to wall seconds
#: there.
REF_RATE = 30_000.0

_A = complex(-0.01, -0.003)
_X = complex(-0.004, 0.001)


class _Sum:
    """Compensated complex sum, the shape of the library's accumulators."""

    __slots__ = ("total", "carry")

    def __init__(self):
        self.total = 0j
        self.carry = 0j

    def add(self, x: complex) -> None:
        t = self.total + x
        if abs(self.total) >= abs(x):
            self.carry += (self.total - t) + x
        else:
            self.carry += (x - t) + self.total
        self.total = t


def unit() -> complex:
    """One reference unit: a term-ratio series logged term by term, as
    the library's series kernels run, and 16 terms of exp(-a n^2) / n^1.5,
    as its oracle runs."""
    acc = _Sum()
    log = []
    last = {}
    t = 1 + 0j
    for j in range(32):
        t = t * ((2 + j) * (2.5 + j) / (j + 1.0)) * _X
        mag = abs(t)
        if isinstance(mag, float) and mag >= 0.0:
            last["j"] = j
            log.append(("j", j, mag))
        acc.add(t)
    for n in range(1, 17):
        acc.add(cmath.exp(_A * (n * n)) / n**1.5)
    return acc.total + acc.carry


def rate(seconds: float) -> float:
    """Reference units per second over about ``seconds`` of wall time."""
    clock = time.perf_counter_ns
    start = clock()
    end = start + int(seconds * 1e9)
    done = 0
    while True:
        unit()
        done += 1
        now = clock()
        if now >= end:
            return done * 1e9 / (now - start)
