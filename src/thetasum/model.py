"""Domain types: problem instances, truncation policies, evaluation records."""

from __future__ import annotations

import cmath
import enum
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Sequence, Union

from .errors import DomainError

__all__ = [
    "SumSpec",
    "Fixed",
    "OptimalFirstMin",
    "OPTIMAL",
    "ErrorTarget",
    "TruncationPolicy",
    "MethodChoice",
    "TermLog",
    "Evaluation",
]


@dataclass(frozen=True)
class SumSpec:
    """A problem instance: evaluate sum_{n>=1} exp(-a n^2) / n^w.

    The Gaussian parameter ``a`` may be complex but must satisfy
    Re(a) > 0 (equivalently |arg a| < pi/2), which is the validity
    sector of every method in this package.  The exponent ``w`` is
    real; ``w = 0`` is accepted for the classical theta case (direct
    summation and the classical transformation), all expansion routes
    require ``w > 0``.
    """

    a: complex
    w: float

    def __post_init__(self):
        a = complex(self.a)
        w = float(self.w)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "w", w)
        if not (cmath.isfinite(a) and math.isfinite(w)):
            raise DomainError("SumSpec requires finite a and w")
        if not a.real > 0.0:
            raise DomainError(f"SumSpec requires Re(a) > 0, got a = {a}")
        if w < 0.0:
            raise DomainError(f"SumSpec requires w >= 0, got w = {w}")


@dataclass(frozen=True)
class Fixed:
    """Truncate after exactly ``count`` included terms."""

    count: int

    def __post_init__(self):
        if not (isinstance(self.count, int) and self.count >= 1):
            raise DomainError("Fixed policy requires an integer count >= 1")


@dataclass(frozen=True)
class OptimalFirstMin:
    """Truncate at the first local minimum of the term magnitudes.

    Ties break toward the smaller index, so the rule is deterministic.
    This is the standard "stop at the least term" prescription for a
    divergent asymptotic series.
    """


@dataclass(frozen=True)
class ErrorTarget:
    """Truncate once a term magnitude drops to ``eps``, never past the
    least term, and never past ``cap`` included terms."""

    eps: float
    cap: int = 2000

    def __post_init__(self):
        if not self.eps > 0.0:
            raise DomainError("ErrorTarget requires eps > 0")
        if not (isinstance(self.cap, int) and self.cap >= 1):
            raise DomainError("ErrorTarget requires an integer cap >= 1")


TruncationPolicy = Union[Fixed, OptimalFirstMin, ErrorTarget]

#: Shared default truncation policy.
OPTIMAL = OptimalFirstMin()


class MethodChoice(enum.Enum):
    """Evaluation route dispatch tag."""

    DIRECT = "direct"
    GENERIC = "generic"
    EVEN_TRANSFORM = "even"
    CLASSICAL_PJ = "pj"


@dataclass
class TermLog:
    """Ordered record of term magnitudes, one sequence per series name.

    Indices must be strictly increasing within a series and magnitudes
    non-negative.  The log records every term that was *computed*,
    including the first omitted one, so least-term decisions can be
    audited from the log alone.  A series loop collects its magnitudes
    locally and hands them over in one ``extend``.
    """

    entries: list[tuple[str, int, float]] = field(default_factory=list)
    _last: dict[str, int] = field(default_factory=dict, repr=False)

    def log(self, series: str, index: int, magnitude: float) -> None:
        self.extend(series, (index,), (magnitude,))

    def extend(self, series: str, indices: Sequence[int], magnitudes: Sequence[float]) -> None:
        """Append one run of terms of ``series``, index i with magnitude
        m for each pair of ``indices`` and ``magnitudes``, checked by
        the same rules as one ``log`` call per term."""
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


@dataclass
class Evaluation:
    """A computed value with its method tag and truncation diagnostics.

    ``err_estimate`` adds the first omitted term of each truncated
    series (a heuristic), the bounds of skipped terms and the rounding
    of kept ones; the direct route gives its noise floor.  Never NaN.
    ``near_odd_warning`` flags non-integer exponents within 0.05 of an
    odd integer, where the generic expansion suffers pole cancellation
    and accuracy guarantees are void.  ``term_log`` is the TermLog the
    caller passed to the route, holding the terms it computed, or a
    fresh empty one when no log was passed.
    """

    value: complex
    method: MethodChoice
    terms_used: dict[str, int]
    err_estimate: float
    term_log: TermLog
    near_odd_warning: bool = False

    def __post_init__(self):
        if not cmath.isfinite(complex(self.value)):
            raise DomainError("Evaluation value must be finite")
        if not self.err_estimate >= 0.0:  # NaN included
            raise DomainError("err_estimate must be non-negative")
        if min(self.terms_used.values(), default=0) < 0:
            raise DomainError("terms_used counts must be non-negative")
