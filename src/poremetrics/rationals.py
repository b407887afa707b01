"""Exact rational parsing, formatting and power helpers, and the one
result type of a reported quantity.

Rationals cross the package's edges as :class:`fractions.Fraction`: parsed
inputs, set specs, report cells.  The hot loops inside carry integers
instead (pore families, profile integrals, the gap-length law, the moment
prefix products) and build a Fraction only where one is read.  Floats
appear only when a rational power of a rational is irrational, and callers
widen such values into explicit brackets.  Every quantity a report prints
either exactly or as ``[lo, hi]`` (a fraction length, an ``A_p`` product,
an ``A_1`` quotient) is a :class:`Bracket`, exact when its two ends are one
Fraction.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .errors import PreconditionError


class Bracket(namedtuple("Bracket", "lo hi")):
    """A quantity known to lie in [lo, hi]; the ends are Fractions, or
    floats where a power is irrational, and ``math.inf`` for no upper bound.
    Exactness is read from the ends alone."""

    __slots__ = ()

    @property
    def exact(self) -> bool:
        return isinstance(self.lo, Fraction) and self.lo == self.hi

    @property
    def value(self) -> Fraction:
        if not self.exact:
            raise PreconditionError("no exact value; inspect lo/hi")
        return self.lo


def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"``, an integer literal, or a terminating decimal, exactly."""
    s = text.strip()
    if not s:
        raise ValueError("empty rational literal")
    if "/" in s:
        num, den = s.split("/", 1)
        return Fraction(int(num.strip()), int(den.strip()))
    # Fraction parses decimal strings exactly ("0.125" -> 1/8).
    return Fraction(s)


def format_rational(x: Fraction) -> str:
    """Canonical ``"p/q"`` form used by every file format in this package."""
    if not isinstance(x, (Fraction, int)):
        x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def format_ratio(n: int, d: int) -> str:
    """``format_rational(Fraction(n, d))`` for integers n and d > 0, with one gcd."""
    g = math.gcd(n, d)
    return f"{n // g}/{d // g}"


def int_nth_root(m: int, k: int) -> int | None:
    """Exact integer k-th root of ``m`` if one exists, else ``None``."""
    if m < 0 or k <= 0:
        raise ValueError("int_nth_root needs m >= 0, k >= 1")
    if m in (0, 1) or k == 1:
        return m
    if k == 2:
        r = math.isqrt(m)
        return r if r * r == m else None
    # Newton's integer step from above the root decreases to its floor.  The
    # seed is the float root raised past its rounding error (well under
    # 2^-40 relative while m fits a float), else 2^ceil(bits/k).
    if m.bit_length() <= 1000:
        r = int(m ** (1.0 / k) * (1 + 2.0**-40)) + 1
    else:
        r = 1 << -(-m.bit_length() // k)
    while True:
        s = ((k - 1) * r + m // r ** (k - 1)) // k
        if s >= r:
            return r if r**k == m else None
        r = s


def power_pair(n: int, d: int, e_num: int, e_den: int) -> tuple[int, int] | None:
    """(n/d)^(e_num/e_den) for coprime n >= 0, d > 0 and e_den >= 1 as a
    coprime integer pair when it is rational, else None: it is rational
    exactly when n and d have integer e_den-th roots.  A negative exponent
    needs n > 0."""
    if e_den > 1:
        n = int_nth_root(n, e_den)
        if n is None:
            return None
        d = int_nth_root(d, e_den)
        if d is None:
            return None
    if e_num < 0:
        return d**-e_num, n**-e_num
    return n**e_num, d**e_num


def rational_pow(x: Fraction, e: Fraction) -> Fraction | None:
    """``x**e`` as an exact Fraction when the result is rational, else None.

    Requires ``x >= 0``; ``0**e`` is defined for ``e >= 0`` only (callers must
    intercept the divergent ``0**negative`` case themselves).
    """
    x = Fraction(x)
    e = Fraction(e)
    if x < 0:
        raise ValueError("rational_pow requires a nonnegative base")
    if x == 0:
        if e > 0:
            return Fraction(0)
        if e == 0:
            return Fraction(1)
        raise ZeroDivisionError("0 raised to a negative power")
    r = power_pair(x.numerator, x.denominator, e.numerator, e.denominator)
    return None if r is None else Fraction(*r)
