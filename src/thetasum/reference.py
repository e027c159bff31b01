"""Reference table for the quartic transformation (w = 4, m = 2).

Benchmark values for the absolute error of the even-exponent
transformation with only the first dual term and optimally truncated
tail factor, together with the reported least-term index.  Rows with
error below 1e-14 were computed at precision far beyond binary64 and
are flagged accordingly: against a binary64 oracle those rows can
only be checked to agree within the oracle's certifiable resolution.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = ["ReferenceRow", "W4_ROWS", "BINARY64_NOISE_FLOOR"]

#: Reference errors below this cannot be resolved against a binary64 oracle.
BINARY64_NOISE_FLOOR = 1e-14


class ReferenceRow(NamedTuple):
    a: float
    value: float  # S(a; 4), 6 decimals
    abs_err: float  # reported absolute error of the transformation
    j0: int  # reported least-term truncation index

    @property
    def reachable(self) -> bool:
        return self.abs_err >= BINARY64_NOISE_FLOOR


W4_ROWS: tuple[ReferenceRow, ...] = (
    ReferenceRow(a=0.10, value=0.952696, abs_err=9.662e-86, j0=96),
    ReferenceRow(a=0.20, value=0.849025, abs_err=9.768e-43, j0=46),
    ReferenceRow(a=0.25, value=0.803169, abs_err=4.045e-34, j0=36),
    ReferenceRow(a=0.50, value=0.615128, abs_err=7.769e-17, j0=17),
    ReferenceRow(a=0.75, value=0.475493, abs_err=4.656e-11, j0=10),
    ReferenceRow(a=1.00, value=0.369026, abs_err=3.642e-8, j0=6),
    ReferenceRow(a=1.50, value=0.223285, abs_err=2.856e-5, j0=3),
    ReferenceRow(a=2.00, value=0.135356, abs_err=7.500e-4, j0=1),
)
