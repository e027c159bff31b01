"""Domain types: problem instances, truncation policies, evaluation records.

The frozen records are NamedTuples, so each equals the plain tuple of
its fields; those that validate do it in a ``__new__``.  ``TermLog``
and ``Evaluation`` are mutable ``__slots__`` classes.  None uses
``dataclasses``, whose import would cost the CLI milliseconds.
"""

from __future__ import annotations

import cmath
import enum
import itertools
import math
import operator
from typing import NamedTuple, Sequence, Union

from .errors import DomainError

__all__ = [
    "SumSpec",
    "Fixed",
    "OptimalFirstMin",
    "OPTIMAL",
    "TruncationPolicy",
    "MethodChoice",
    "TermLog",
    "EMPTY_LOG",
    "Evaluation",
]


class SumSpec(NamedTuple("SumSpec", [("a", complex), ("w", float)])):
    """A problem instance: evaluate sum_{n>=1} exp(-a n^2) / n^w.

    The Gaussian parameter ``a`` may be complex but must satisfy
    Re(a) > 0 (equivalently |arg a| < pi/2), which is the validity
    sector of every method in this package.  The exponent ``w`` is
    real; ``w = 0`` is accepted for the classical theta case (direct
    summation and the classical transformation), all expansion routes
    require ``w > 0``.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    def __new__(cls, a: complex, w: float):
        a = complex(a)
        w = float(w)
        if not (cmath.isfinite(a) and math.isfinite(w)):
            raise DomainError("SumSpec requires finite a and w")
        if not a.real > 0.0:
            raise DomainError(f"SumSpec requires Re(a) > 0, got a = {a}")
        if w < 0.0:
            raise DomainError(f"SumSpec requires w >= 0, got w = {w}")
        return tuple.__new__(cls, (a, w))


class Fixed(NamedTuple("Fixed", [("count", int)])):
    """Truncate after exactly ``count`` included terms."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    def __new__(cls, count: int):
        if not isinstance(count, int) or isinstance(count, bool) or count < 1:
            raise DomainError("Fixed policy requires an integer count >= 1")
        return tuple.__new__(cls, (count,))


class OptimalFirstMin(NamedTuple):
    """Truncate at the first local minimum of the term magnitudes.

    Ties break toward the smaller index, so the rule is deterministic.
    This is the standard "stop at the least term" prescription for a
    divergent asymptotic series.
    """

    def __bool__(self) -> bool:
        # an empty tuple is false; a policy, like every record, is true
        return True


TruncationPolicy = Union[Fixed, OptimalFirstMin]

#: Shared default truncation policy.
OPTIMAL = OptimalFirstMin()


class MethodChoice(enum.Enum):
    """Evaluation route dispatch tag."""

    DIRECT = "direct"
    GENERIC = "generic"
    EVEN_TRANSFORM = "even"
    CLASSICAL_PJ = "pj"


class _Mutable:
    # a mutable record: the repr shows each slot not named with a
    # leading underscore, equality compares every slot, no hash
    __slots__ = ()

    def __eq__(self, other):
        cls = self.__class__
        if other.__class__ is not cls:
            return NotImplemented
        key = operator.attrgetter(*cls.__slots__)
        return key(self) == key(other)

    def __repr__(self) -> str:
        cls = self.__class__
        shown = (f"{n}={getattr(self, n)!r}" for n in cls.__slots__ if n[0] != "_")
        return f"{cls.__qualname__}({', '.join(shown)})"


class TermLog(_Mutable):
    """Ordered record of term magnitudes, one sequence per series name.

    Indices must be strictly increasing within a series and magnitudes
    non-negative.  The log records every term that was *computed*,
    including the first omitted one, so least-term decisions can be
    audited from the log alone.  A series loop collects its magnitudes
    locally and hands them over in one ``extend``.
    """

    __slots__ = ("entries", "_last")

    def __init__(self, entries: list | None = None, _last: dict | None = None):
        self.entries = [] if entries is None else entries
        self._last = {} if _last is None else _last

    def log(self, series: str, index: int, magnitude: float) -> None:
        self.extend(series, (index,), (magnitude,))

    def extend(self, series: str, indices: Sequence[int], magnitudes: Sequence[float]) -> None:
        """Append one run of terms of ``series``, index i with magnitude
        m for each pair of ``indices`` and ``magnitudes``, checked by
        the same rules as one ``log`` call per term.  EMPTY_LOG refuses
        every write with TypeError."""
        if self is EMPTY_LOG:
            raise TypeError(
                "EMPTY_LOG, the term_log of every evaluation made without a log, "
                "is shared and read-only; pass log=TermLog() to record terms"
            )
        if len(indices) != len(magnitudes):
            raise ValueError("one magnitude per term index is required")
        if not indices:
            return
        prev = self._last.get(series)
        if isinstance(indices, range):
            rising = indices.step > 0
        else:
            rising = all(map(operator.lt, indices, itertools.islice(indices, 1, None)))
        if not rising or (prev is not None and indices[0] <= prev):
            raise ValueError(f"term index not increasing for series {series!r}")
        # min() is a NaN-free lower bound when it is >= 0 (a NaN first
        # element makes it NaN); only otherwise is every term compared
        if not min(magnitudes) >= 0.0 and any(map(operator.lt, magnitudes, itertools.repeat(0.0))):
            raise ValueError("term magnitude must be non-negative")
        self._last[series] = indices[-1]
        self.entries += zip(itertools.repeat(series), indices, magnitudes)

    def series(self, name: str) -> list[tuple[int, float]]:
        return [(i, m) for s, i, m in self.entries if s == name]


#: The ``term_log`` of every evaluation made without a log: one shared,
#: empty TermLog whose ``log`` and ``extend`` raise TypeError, so no
#: call allocates a log it would not write.
EMPTY_LOG = TermLog()


class Evaluation(_Mutable):
    """A computed value with its method tag and truncation diagnostics.

    ``err_estimate`` adds the first omitted term of each truncated
    series (a heuristic), the bounds of skipped terms and the rounding
    of kept ones; the direct route gives its noise floor.  Finite and
    non-negative: a route whose estimate overflows refuses instead.
    ``near_odd_warning`` flags non-integer exponents within 0.05 of an
    odd integer, where the generic expansion suffers pole cancellation
    and accuracy guarantees are void.  ``term_log`` is the TermLog the
    caller passed to the route, holding the terms it computed, or the
    shared read-only EMPTY_LOG when no log was passed.

    A record is refused with DomainError when its value is not finite
    (``cmath.isfinite``, which takes a float as it is), its estimate is
    not finite and non-negative, or a count of ``terms_used`` is
    negative; an empty ``terms_used`` is accepted.
    """

    __slots__ = ("value", "method", "terms_used", "err_estimate", "term_log", "near_odd_warning")

    def __init__(
        self, value: complex, method: MethodChoice, terms_used: dict[str, int],
        err_estimate: float, term_log: TermLog, near_odd_warning: bool = False,
    ):
        if not cmath.isfinite(value):
            raise DomainError("Evaluation value must be finite")
        if not 0.0 <= err_estimate < math.inf:  # NaN included
            raise DomainError("err_estimate must be finite and non-negative")
        if terms_used and min(terms_used.values()) < 0:
            raise DomainError("terms_used counts must be non-negative")
        self.value = value
        self.method = method
        self.terms_used = terms_used
        self.err_estimate = err_estimate
        self.term_log = term_log
        self.near_odd_warning = near_odd_warning
