"""Half-open windows of the line with exact rational geometry.

A cube is the interval ``[lo, hi)`` held as its two Fraction ends, so
lengths and measures are exact and identity comparison is structural.  No
cube below a window is ever built: the pore walks of ``pores`` address the
dyadic subcubes of a window as integer cells, and the reference search of
``tests/oracles.py`` halves a cube with ``Cube.interval`` (``children``).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .errors import PreconditionError


class Cube(namedtuple("Cube", "lo hi")):
    __slots__ = ()

    @classmethod
    def interval(cls, lo, hi) -> "Cube":
        """The cube [lo, hi)."""
        lo, hi = Fraction(lo), Fraction(hi)
        if hi <= lo:
            raise PreconditionError("interval needs hi > lo")
        return cls(lo, hi)

    @property
    def side(self) -> Fraction:
        return self.hi - self.lo

    def as_interval(self) -> tuple[Fraction, Fraction]:
        return self.lo, self.hi

    def __str__(self):
        return f"[{self.lo},{self.hi})"
