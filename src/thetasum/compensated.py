"""Compensated floating-point accumulation.

Neumaier's variant of Kahan summation: the running compensation also
absorbs the case where an incoming term is larger than the current
sum, so accumulation order does not matter for accuracy.  Keeps the
total rounding error near one unit roundoff independent of the number
of terms, which the oracle comparisons at the 1e-13 level require.
"""

from __future__ import annotations

__all__ = ["ComplexSum"]


class ComplexSum:
    """Running compensated sum of complex terms (componentwise Neumaier)."""

    __slots__ = ("_re", "_im", "_c_re", "_c_im")

    def __init__(self, start: complex = 0j):
        start = complex(start)
        self._re = start.real
        self._im = start.imag
        self._c_re = 0.0
        self._c_im = 0.0

    def add(self, z: complex) -> None:
        z = complex(z)
        x, s = z.real, self._re
        t = s + x
        if abs(s) >= abs(x):
            self._c_re += (s - t) + x
        else:
            self._c_re += (x - t) + s
        self._re = t
        x, s = z.imag, self._im
        t = s + x
        if abs(s) >= abs(x):
            self._c_im += (s - t) + x
        else:
            self._c_im += (x - t) + s
        self._im = t

    @property
    def value(self) -> complex:
        return complex(self._re + self._c_re, self._im + self._c_im)
