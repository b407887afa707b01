"""Half-open dyadic intervals of the line with exact rational geometry.

A cube lives inside a fixed root interval ``[origin, origin + side)`` and is
addressed by a generation ``j`` and an integer index in ``[0, 2**j)``: it is
the index-th of the 2**j equal pieces of the root.  Coordinates are
Fractions throughout, so ends, lengths and measures are exact and identity
comparison is structural.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import PreconditionError


@dataclass(frozen=True)
class Cube:
    root_origin: Fraction
    root_side: Fraction
    generation: int
    index: int

    def __post_init__(self):
        if self.root_side <= 0:
            raise PreconditionError("root side must be positive")
        if self.generation < 0:
            raise PreconditionError("generation must be nonnegative")
        if not 0 <= self.index < 1 << self.generation:
            raise PreconditionError("index out of range for generation")

    @classmethod
    def interval(cls, lo, hi) -> "Cube":
        """The root cube [lo, hi)."""
        lo, hi = Fraction(lo), Fraction(hi)
        if hi <= lo:
            raise PreconditionError("interval needs hi > lo")
        return cls(lo, hi - lo, 0, 0)

    @property
    def side(self) -> Fraction:
        return self.root_side / (1 << self.generation)

    @property
    def measure(self) -> Fraction:
        """Lebesgue measure, which on the line is the side length."""
        return self.side

    def as_interval(self) -> tuple[Fraction, Fraction]:
        s = self.side
        lo = self.root_origin + s * self.index
        return lo, lo + s

    def __str__(self):
        lo, hi = self.as_interval()
        return f"[{lo},{hi})"
