"""Closed subsets of the line: distance queries, window pieces, and the copy-contract-copy generator.

Every oracle represents a closed set on the line.  It answers exact Fraction
distance queries and one window query, the set's closed pieces in the window
as integer runs; the gaps of a window, its dyadic pores and the weight means
are all built from these.  The generator reads its contraction factors as
coprime integer pairs, one per stage.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, count, islice, repeat
from operator import mul

from .dyadic import Cube
from .errors import ParseError, PreconditionError
from .rationals import format_rational, parse_rational

GENERATE_LEVEL_CAP = 14  # 3**14 + 1 points; beyond this use the length-law recursion
_ZERO = Fraction(0)


class ContractionSequence:
    """The sequence {c_n} in (0, 1] driving the copy-contract-copy generator.

    The constructor is the one place that knows the rules: ``constant`` needs
    ``c``, ``half_harmonic`` (c_n = 1 - 1/(2n)) takes none.  An unknown rule
    name, a missing ``c`` or a ``c`` given to ``half_harmonic`` does not parse.
    ``stages`` yields the factors as coprime integer pairs, the one form in
    which the laws, moments, envelope lengths and generator stages read them.
    Two sequences are equal when their rule and ``c`` are.
    """

    RULES = ("constant", "half_harmonic")
    __slots__ = ("rule", "c")

    def __init__(self, rule: str, c: Fraction | None = None):
        if rule not in self.RULES:
            raise ParseError(f"unknown contraction rule {rule!r}")
        if rule == "half_harmonic":
            if c is not None:
                raise ParseError("half_harmonic rule takes no c")
        elif c is None:
            raise ParseError("constant rule needs c")
        elif not 0 < c <= 1:
            raise PreconditionError("constant rule needs c in (0, 1]")
        self.rule, self.c = rule, c

    def __eq__(self, other):
        return isinstance(other, ContractionSequence) and (self.rule, self.c) == (other.rule, other.c)

    def __hash__(self):
        return hash((self.rule, self.c))

    @classmethod
    def constant(cls, c) -> "ContractionSequence":
        return cls("constant", Fraction(c))

    @classmethod
    def half_harmonic(cls) -> "ContractionSequence":
        return cls("half_harmonic", None)

    def stages(self):
        """c_1, c_2, ..., endlessly, as coprime integer pairs (a, b) with
        c_n = a/b and b > 0: (2n - 1, 2n) for the half-harmonic rule."""
        if self.rule == "constant":
            return repeat((self.c.numerator, self.c.denominator))
        return ((2 * n - 1, 2 * n) for n in count(1))


class Prefixes:
    """The entries 0, 1, 2, ... of an endless sequence, each drawn once and
    only as far as a caller has asked."""

    def __init__(self, entries):
        self._entries = iter(entries)
        self._drawn = []

    def upto(self, m: int) -> list:
        """A list holding at least the entries 0..m."""
        if m >= len(self._drawn):
            self._drawn += islice(self._entries, m + 1 - len(self._drawn))
        return self._drawn


def envelope_lengths(seq: ContractionSequence):
    """|Q_0|, |Q_1|, |Q_2|, ..., endlessly: the exact prefix products of
    (2 + c_i), strictly increasing."""
    return accumulate((Fraction(2 * b + a, b) for a, b in seq.stages()), mul, initial=Fraction(1))


def envelope_length(seq: ContractionSequence, level: int) -> Fraction:
    """|Q_n| for the generator: the exact product of (2 + c_i)."""
    if level < 0:
        raise PreconditionError("level must be nonnegative")
    return next(islice(envelope_lengths(seq), level, None))


def check_enumerable(level: int) -> None:
    """Refuse a stage past ``GENERATE_LEVEL_CAP`` before any point is built."""
    if level > GENERATE_LEVEL_CAP:
        raise PreconditionError(f"explicit enumeration is capped at level {GENERATE_LEVEL_CAP}")


def envelope_cube(seq: ContractionSequence, level: int) -> Cube:
    """The envelope Q_n = [0, |Q_n|) as a root cube."""
    return Cube.interval(0, envelope_length(seq, level))


class SetOracle:
    """Common query surface over all set representations."""

    __slots__ = ()

    def distance(self, x) -> Fraction:
        raise NotImplementedError

    def piece_runs(self, lo: Fraction, hi: Fraction) -> list:
        """The closed pieces [l, h] of the set that meet [lo, hi), whole and
        in increasing order, as runs (b, lefts, rights) of integer ends
        l = lefts[i]/b and h = rights[i]/b over a shared denominator b.  A
        point is a piece with l == h, and a run of points has ``rights is
        lefts``.  No pieces means the window misses the set.  The pores, the
        pore profiles, the gaps and the weight means of every set come from
        this one query."""
        raise NotImplementedError

    def is_measure_zero(self) -> bool:
        return True


class FinitePoints(SetOracle):
    """A finite set of points on the line, stored as its distinct values
    in increasing order, however they were given."""

    __slots__ = ("points",)

    def __init__(self, points):
        self.points = tuple(sorted({Fraction(p) for p in points}))
        if not self.points:
            raise PreconditionError("FinitePoints needs at least one point")

    def __eq__(self, other):
        return isinstance(other, FinitePoints) and self.points == other.points

    def distance(self, x) -> Fraction:
        x = Fraction(x)
        pts = self.points
        i = bisect_left(pts, x)
        return min(abs(x - pts[j]) for j in (i - 1, i) if 0 <= j < len(pts))

    def piece_runs(self, lo, hi):
        i = bisect_left(self.points, Fraction(lo))
        j = bisect_left(self.points, Fraction(hi))
        return [(p.denominator, nums, nums) for p in self.points[i:j] for nums in [(p.numerator,)]]


class IntegerLattice(SetOracle):
    """The integers as a subset of the line."""

    __slots__ = ()

    def distance(self, x) -> Fraction:
        x = Fraction(x)
        f = x - math.floor(x)
        return min(f, 1 - f)

    def piece_runs(self, lo, hi):
        ks = range(math.ceil(Fraction(lo)), math.ceil(Fraction(hi)))
        return [(1, ks, ks)] if ks else []


class Generated(SetOracle):
    """A generator stage E_n (optionally reflected through 0), held as the
    sorted integer numerators of its points over one denominator ``den``.

    A query point x is scaled once: a numerator n has n/den >= x exactly when
    n >= ceil(x den), so every query bisects the integer list.  Nothing is
    enumerated at construction: ``numerators`` (and with them the level cap)
    are built on the first query that needs points, ``points``, the Fraction
    view, on first use only, and the envelope and the envelope lengths come
    from the contraction factors alone.  Equality and hashing go by the spec
    (sequence, level, reflection), which fixes the points.
    """

    def __init__(self, seq: ContractionSequence, level: int, with_reflection: bool = False):
        if level < 0:
            raise PreconditionError("level must be nonnegative")
        self.seq, self.level, self.with_reflection = seq, level, with_reflection
        # E[X_m^theta] by theta, one ``Prefixes`` of ``porestats.moment_stream``
        # each, filled by the closed-form envelope means of ``weights``.
        self.moments = {}

    def __eq__(self, other):
        return isinstance(other, Generated) and (self.seq, self.level, self.with_reflection) == (
            other.seq, other.level, other.with_reflection
        )

    def __hash__(self):
        return hash((self.seq, self.level, self.with_reflection))

    @cached_property
    def den(self) -> int:
        """prod q_i for c_i = p_i/q_i: a point of stage i-1 is a multiple of
        q_i ... q_level over den, so the contraction by c_i divides exactly."""
        return math.prod(q for _, q in islice(self.seq.stages(), self.level))

    @cached_property
    def numerators(self) -> tuple:
        """The points times ``den``, in increasing order: each stage appends
        the previous one contracted by c_i, then an uncontracted copy."""
        check_enumerable(self.level)
        nums = [0, self.den]
        for p, q in islice(self.seq.stages(), self.level):
            last = nums[-1]
            top = last + last // q * p
            nums += [last + x // q * p for x in nums[1:]] + [top + x for x in nums[1:]]
        if self.with_reflection:
            nums = [-x for x in reversed(nums[1:])] + nums
        return tuple(nums)

    @cached_property
    def _envelope_lengths(self) -> Prefixes:
        return Prefixes(envelope_lengths(self.seq))

    @cached_property
    def envelope(self) -> tuple:
        top = self._envelope_lengths.upto(self.level)[self.level]
        return (-top if self.with_reflection else _ZERO, top)

    def envelope_level(self, cube: Cube) -> int | None:
        """The m <= level with ``cube == envelope_cube(seq, m)`` as an
        interval, or None when the cube is no such envelope."""
        lo, hi = cube.as_interval()
        if lo != 0 or hi < 1:
            return None
        # |Q_m| >= 2^m, so m <= log2(hi) < (bits of hi's numerator) - (bits
        # of its denominator) + 1.
        top = min(self.level, hi.numerator.bit_length() - hi.denominator.bit_length() + 1)
        lengths = self._envelope_lengths.upto(top)
        m = bisect_left(lengths, hi, 0, top + 1)
        return m if m <= top and lengths[m] == hi else None

    @cached_property
    def points(self) -> tuple:
        """The points as Fractions, in increasing order."""
        return tuple(Fraction(n, self.den) for n in self.numerators)

    def _first_at_least(self, x: Fraction) -> int:
        """Index of the first point >= x."""
        return bisect_left(self.numerators, -(-x.numerator * self.den // x.denominator))

    def distance(self, x) -> Fraction:
        # |x - n/den| = |x.numerator den - n x.denominator| / (x.denominator den)
        x = Fraction(x)
        nums = self.numerators
        i = self._first_at_least(x)
        xn, xd = x.numerator * self.den, x.denominator
        best = min(abs(xn - nums[j] * xd) for j in (i - 1, i) if 0 <= j < len(nums))
        return Fraction(best, xd * self.den)

    def piece_runs(self, lo, hi):
        nums = self.numerators[self._first_at_least(Fraction(lo)):self._first_at_least(Fraction(hi))]
        return [(self.den, nums, nums)] if nums else []

    def spec_dict(self) -> dict:
        contraction = {"rule": self.seq.rule}
        if self.seq.rule == "constant":
            contraction["c"] = format_rational(self.seq.c)
        return {
            "type": "generated",
            "contraction": contraction,
            "level": self.level,
            "reflect": self.with_reflection,
        }


def _box_interval(box) -> tuple[Fraction, Fraction]:
    """The closed interval [lo, hi] of a ``((lo,), (hi,))`` corner pair."""
    lows, highs = box
    if len(lows) != 1 or len(highs) != 1:
        raise PreconditionError(
            f"box corners of dimension {max(len(lows), len(highs))}: sets must lie on the line"
        )
    lo, hi = Fraction(lows[0]), Fraction(highs[0])
    if hi < lo:
        raise PreconditionError("box needs hi >= lo")
    return lo, hi


class BoxUnion(SetOracle):
    """A finite union of closed intervals [lo, hi] (lo == hi is a point),
    given as ``((lo,), (hi,))`` corner pairs.

    Construction sorts the intervals and merges any that overlap or touch,
    so the set is held as disjoint closed intervals [los[k], his[k]] with
    his[k] < los[k + 1]; both tuples are sorted and every query bisects them.
    """

    __slots__ = ("los", "his")

    def __init__(self, boxes):
        spans = sorted(map(_box_interval, boxes))
        if not spans:
            raise PreconditionError("BoxUnion needs at least one box")
        los, his = [spans[0][0]], [spans[0][1]]
        for lo, hi in spans[1:]:
            if lo <= his[-1]:
                his[-1] = max(his[-1], hi)
            else:
                los.append(lo)
                his.append(hi)
        self.los, self.his = tuple(los), tuple(his)

    def distance(self, x) -> Fraction:
        x = Fraction(x)
        k = bisect_right(self.los, x) - 1  # the last interval starting at or before x
        if k >= 0 and x <= self.his[k]:
            return Fraction(0)
        gaps = [x - self.his[k]] if k >= 0 else []
        if k + 1 < len(self.los):
            gaps.append(self.los[k + 1] - x)
        return min(gaps)

    def piece_runs(self, lo, hi):
        # The intervals ending at or after lo and starting before hi.
        first, stop = bisect_left(self.his, Fraction(lo)), bisect_left(self.los, Fraction(hi))
        runs = []
        for l, h in zip(self.los[first:stop], self.his[first:stop]):
            b = math.lcm(l.denominator, h.denominator)
            lefts = (l.numerator * (b // l.denominator),)
            runs.append((b, lefts, lefts if l == h else (h.numerator * (b // h.denominator),)))
        return runs

    def is_measure_zero(self) -> bool:
        return self.los == self.his


def oracle_from_spec(spec: dict) -> SetOracle:
    """Build an oracle from the set-spec JSON dictionary.

    ``points`` is a list of rationals, or of one-coordinate lists; both load
    as the ``FinitePoints`` of their distinct values.  A spec that does not
    parse (a missing key, a malformed number, an unknown type or rule) raises
    ``ParseError``; one that parses but lies outside a set's domain, such as
    a point with two or more coordinates, raises ``PreconditionError``.
    """
    try:
        kind = spec["type"]
        if kind == "points":
            raw = spec["points"]
            nested = bool(raw) and all(isinstance(p, list) for p in raw)
            pts = [tuple(map(parse_rational, p)) if nested else (parse_rational(p),) for p in raw]
        elif kind == "generated":
            contraction = spec["contraction"]
            rule, c = contraction["rule"], contraction.get("c")
            c = None if c is None else parse_rational(c)
            level, reflect = int(spec["level"]), bool(spec.get("reflect", False))
    except (AttributeError, KeyError, TypeError, ValueError) as err:
        raise ParseError(f"malformed set spec: {type(err).__name__}: {err}") from None
    if kind == "lattice":
        return IntegerLattice()
    if kind == "points":
        dims = sorted({len(p) for p in pts} - {1})
        if dims:
            raise PreconditionError(f"set-spec points of dimension {dims[-1]}: sets must lie on the line")
        return FinitePoints(tuple(x for x, in pts))
    if kind == "generated":
        return Generated(ContractionSequence(rule, c), level, reflect)
    raise ParseError(f"unknown set spec type {kind!r}")


def load_set_spec(path) -> SetOracle:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as err:
        raise ParseError(f"cannot read set spec {str(path)!r}: {err}") from None
    return oracle_from_spec(spec)


def save_set_spec(oracle: Generated, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(oracle.spec_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
