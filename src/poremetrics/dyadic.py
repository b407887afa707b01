"""Half-open windows of the line with exact rational geometry.

A cube is the interval ``[lo, hi)`` held as its two Fraction ends, so
lengths and measures are exact and identity comparison is structural.  No
cube below a window is ever built: the pore walks of ``pores`` address the
dyadic subcubes of a window as integer cells, and the reference search of
``tests/oracles.py`` halves a cube with ``Cube.interval`` (``children``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import PreconditionError


@dataclass(frozen=True)
class Cube:
    lo: Fraction
    hi: Fraction

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

    @property
    def measure(self) -> Fraction:
        """Lebesgue measure, which on the line is the side length."""
        return self.side

    def as_interval(self) -> tuple[Fraction, Fraction]:
        return self.lo, self.hi

    def __str__(self):
        return f"[{self.lo},{self.hi})"
