"""Half-open dyadic cubes with exact rational geometry.

A cube lives inside a fixed root box and is addressed by a generation ``j``
and an integer index vector in ``[0, 2**j)**n``.  Realized coordinates are
Fractions throughout, so parent/child relations, side lengths and measures
are exact and identity comparison is structural.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .errors import PreconditionError


@dataclass(frozen=True)
class Cube:
    root_origin: tuple
    root_side: Fraction
    generation: int
    index: tuple

    def __post_init__(self):
        if self.root_side <= 0:
            raise PreconditionError("root side must be positive")
        if self.generation < 0:
            raise PreconditionError("generation must be nonnegative")
        if len(self.index) != len(self.root_origin):
            raise PreconditionError("index/origin dimension mismatch")
        bound = 1 << self.generation
        for i in self.index:
            if not 0 <= i < bound:
                raise PreconditionError("index out of range for generation")

    @classmethod
    def root(cls, origin, side) -> "Cube":
        origin = tuple(Fraction(c) for c in origin)
        return cls(origin, Fraction(side), 0, (0,) * len(origin))

    @classmethod
    def interval(cls, lo, hi) -> "Cube":
        """One-dimensional root cube [lo, hi)."""
        lo, hi = Fraction(lo), Fraction(hi)
        if hi <= lo:
            raise PreconditionError("interval needs hi > lo")
        return cls.root((lo,), hi - lo)

    @property
    def dimension(self) -> int:
        return len(self.root_origin)

    @property
    def side(self) -> Fraction:
        return self.root_side / (1 << self.generation)

    @property
    def measure(self) -> Fraction:
        return self.side ** self.dimension

    def lower(self) -> tuple:
        s = self.side
        return tuple(o + s * i for o, i in zip(self.root_origin, self.index))

    def upper(self) -> tuple:
        s = self.side
        return tuple(c + s for c in self.lower())

    def as_interval(self) -> tuple[Fraction, Fraction]:
        if self.dimension != 1:
            raise PreconditionError("as_interval is only defined in dimension 1")
        return self.lower()[0], self.upper()[0]

    def children(self) -> list["Cube"]:
        """The 2**n pairwise-disjoint cubes of the next generation covering self."""
        base = tuple(2 * i for i in self.index)
        out = []
        for delta in product((0, 1), repeat=self.dimension):
            idx = tuple(b + d for b, d in zip(base, delta))
            out.append(
                Cube(self.root_origin, self.root_side, self.generation + 1, idx)
            )
        return out

    def parent(self) -> "Cube":
        if self.generation == 0:
            raise PreconditionError("root has no parent")
        idx = tuple(i // 2 for i in self.index)
        return Cube(self.root_origin, self.root_side, self.generation - 1, idx)

    def ancestor(self, k: int) -> "Cube":
        """k-fold parent; k equal to the generation reaches the root."""
        if not 0 <= k <= self.generation:
            raise PreconditionError("ancestor depth out of range")
        idx = tuple(i >> k for i in self.index)
        return Cube(self.root_origin, self.root_side, self.generation - k, idx)

    def descendants(self, depth: int):
        """All descendants exactly ``depth`` generations below, in index order."""
        if depth < 0:
            raise PreconditionError("depth must be nonnegative")
        gen = self.generation + depth
        base = tuple(i << depth for i in self.index)
        for delta in product(range(1 << depth), repeat=self.dimension):
            idx = tuple(b + d for b, d in zip(base, delta))
            yield Cube(self.root_origin, self.root_side, gen, idx)

    def __str__(self):
        lo, hi = self.lower(), self.upper()
        parts = ",".join(f"[{a},{b})" for a, b in zip(lo, hi))
        return parts
