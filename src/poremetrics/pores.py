"""Dyadic pore enumeration and the fraction-length statistics built on it.

A pore of a window cube is a dyadic subcube that misses the closed set while
its dyadic parent meets it.  Pores of equal generation share a side length,
so the enumeration keeps only a generation -> count histogram plus the mass
not yet classified below the deepest generation J reached.  Every such mass
is a whole number of units |Q0| 2**-J, so the histogram, the tail and the
threshold walks are integers; Fractions are built only for report cells and
exception messages.  On the line the pores are fixed by the set's closed
pieces in the window, so one ``piece_runs`` query and one pass over the
integer cells of the pieces' ends find them for every set; no tree search
is needed.  Each end's cell costs one multiply and shift, by a reciprocal
of the run's divisor fixed once per run.  A fraction length is a
``Bracket`` of two pore lengths, exact when depth leaves one crossing.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_left
from collections import namedtuple
from enum import Enum
from fractions import Fraction

from .dyadic import Cube
from .errors import InsufficientDepthError, PreconditionError
from .rationals import Bracket
from .setmodels import SetOracle


class Side(Enum):
    LARGEST = "largest"
    SMALLEST = "smallest"


class FractionQuery:
    """A mass-fraction threshold query, t in (0,1), on one side of the histogram."""

    __slots__ = ("t", "side")

    def __init__(self, t, side: Side):
        self.t, self.side = Fraction(t), side
        if not 0 < self.t < 1:
            raise PreconditionError("fraction threshold t must lie in (0, 1)")


class PoreFamily(namedtuple("PoreFamily", "root counts max_generation tail tail_is_pore_mass")):
    """Generation histogram of the pores of a window, counted in units.

    A unit is ``|root| * 2**-max_generation``, the measure of the deepest
    cubes.  ``counts[j]`` pores of relative generation j each have side
    ``root.side * 2**-j``, that is ``2**(max_generation - j)`` units.
    ``tail`` counts the units not covered by enumerated pores; when the
    oracle certifies measure zero they are exactly the pore mass still
    hiding below ``max_generation``.  ``length_of``, ``entries`` and
    ``tail_mass`` are the Fraction views for reports.
    """

    __slots__ = ()

    @property
    def tail_mass(self) -> Fraction:
        return self.root.side * Fraction(self.tail, 1 << self.max_generation)

    def length_of(self, gen: int) -> Fraction:
        return self.root.side / (1 << gen)

    def entries(self):
        """(generation, length, count, mass) rows, largest length first."""
        rows = []
        for g in sorted(self.counts):
            length = self.length_of(g)
            rows.append((g, length, self.counts[g], self.counts[g] * length))
        return rows

    def maximal_pore_length(self) -> Fraction:
        if not self.counts:
            raise PreconditionError("empty pore family")
        return self.length_of(min(self.counts))


def _scaled_runs(pieces, q0: Cube, max_gen: int):
    """The runs (b, lefts, rights) of the window's pieces as (k, c, s, div,
    mul, off, lefts, rights), the one place that fixes the integer cell of a
    piece end.

    An end a/b has relative position (p - lo)/side = N / (div << max_gen)
    with N = a mul - off, and its generation-max_gen cell
    x = floor(2**max_gen (p - lo)/side) is floor(N / div).  Within a run
    only a varies, so div, mul and off are reduced by their gcd and the
    division by div becomes a multiplication by one reciprocal fixed for the
    run: with s = (div << max_gen).bit_length() + div.bit_length() and
    m = ceil(2**s / div), the cell is (a k - c) >> s for k = mul m and
    c = off m.  It is exact: 2**s > div (div << max_gen), so for every
    0 <= N < div << max_gen, N m / 2**s exceeds N / div by less than 1 / div
    and the floor does not change.  An N < 0 (a left end below lo) still
    maps below 0, and an N past the window never maps below its true floor,
    so the consumers' clamps to [0, 2**max_gen) hold as well.
    """
    lo, _ = q0.as_interval()
    c, d = lo.numerator, lo.denominator
    e, f = q0.side.numerator, q0.side.denominator
    de, df, cf = d * e, d * f << max_gen, c * f << max_gen
    for b, lefts, rights in pieces:
        div, off = b * de, b * cf
        g = math.gcd(div, df, off)
        div, mul, off = div // g, df // g, off // g
        s = (div << max_gen).bit_length() + div.bit_length()
        m = -(-(1 << s) // div)
        yield mul * m, off * m, s, div, mul, off, lefts, rights


def _pore_family(oracle: SetOracle, q0: Cube, pieces, max_gen: int) -> PoreFamily:
    """The generation histogram of the pores of ``q0``, given the window's
    ``piece_runs``.

    With J = max_gen and x = floor(2**J (p - lo)/side) clamped to [0, 2**J),
    the cell that ``_scaled_runs`` gives a piece end p by one multiply and
    shift, the generation-j cell of p is x >> (J - j), so two adjacent ends
    first fall into different cells at generation
    J + 1 - (x ^ x_prev).bit_length().  The loop counts adjacent ends by that
    bit length (0 for ends in one cell; the first end is its own
    predecessor) and reverses the counts into ``splits`` once.  A piece
    [l, h] meets the generation-j cells from the cell of l to the cell of h,
    and the ends are sorted, so the cells meeting the set are those holding
    an end, 1 + #{adjacent ends split by j}, and those strictly inside one
    interval's cell range, which hold no end.  The pores of
    generation j are the empty children of the nonempty cells one generation
    up: counts[j] = 2 nonempty(j-1) - nonempty(j).  Everything is exact
    integer arithmetic; the work per point does not depend on the depth, and
    each interval adds one term per generation.
    """
    if max_gen < 1:
        raise PreconditionError("max_gen must be at least 1")
    if not pieces:
        raise PreconditionError("window does not meet the set; choose a window that meets the set")
    top = (1 << max_gen) - 1
    buckets = [0] * (max_gen + 2)
    inside = [0] * (max_gen + 1)
    runs = list(_scaled_runs(pieces, q0, max_gen))
    k, c, s, *_, lefts, _ = runs[0]
    prev = max((lefts[0] * k - c) >> s, 0)
    for k, c, s, *_, lefts, rights in runs:
        if rights is lefts:
            for a in lefts:
                x = (a * k - c) >> s
                buckets[(x ^ prev).bit_length()] += 1
                prev = x
            continue
        for a, b in zip(lefts, rights):
            x = max((a * k - c) >> s, 0)
            y = min((b * k - c) >> s, top)
            buckets[(x ^ prev).bit_length()] += 1
            if y != x:
                split = (x ^ y).bit_length()
                buckets[split] += 1
                for j in range(max_gen + 2 - split, max_gen + 1):
                    inside[j] += (y >> (max_gen - j)) - (x >> (max_gen - j)) - 1
            prev = y
    # splits[j]: the adjacent ends that generation j separates first.
    splits = buckets[::-1]
    counts: dict = {}
    nonempty = holding_ends = 1
    for j in range(1, max_gen + 1):
        holding_ends += splits[j]
        pores = 2 * nonempty - holding_ends - inside[j]
        if pores:
            counts[j] = pores
        nonempty = holding_ends + inside[j]
    tail = (1 << max_gen) - sum(k << (max_gen - g) for g, k in counts.items())
    if tail < 0:
        raise AssertionError("pore mass exceeded the window measure")
    return PoreFamily(q0, counts, max_gen, tail, oracle.is_measure_zero())


def cell_pore_profiles(q0: Cube, pieces, d_lo: Fraction, d_hi: Fraction, max_gen: int):
    """Yield the pores of ``q0`` generation by generation, left to right,
    found from the cells of the ends of the window's ``piece_runs``, each as
    the integer profile (h, d_left, d_right, den): its length and the
    distances from its ends to the set, relative to the window and over one
    denominator.

    The ends in one generation-(j-1) cell form a group.  A group whose ends
    all fall into one child leaves the other child empty of ends; it is a
    pore unless an interval reaches across it, that is unless the group's
    first end closes an interval (for the left child) or its last end opens
    one (for the right child).  The groups, kept left to right, yield one
    generation at a time.  The set points nearest to a pore are the last end
    before its group's ends and the first one after them.  Where that end
    lies outside the window, a stand-in at distance ``d_lo`` = dist(lo)
    below ``lo`` (``d_hi`` = dist(hi) above ``hi``) takes its place: it is
    that point, or else no nearer to any point of the window than the
    window's first (last) set point is, so no distance changes.  The caller
    asks the set for the pieces and the two distances once.
    """
    if max_gen < 1:
        raise PreconditionError("max_gen must be at least 1")
    # The ends as (N, m) with relative position N / (m << max_gen), their
    # cells by the multiply and shift of ``_scaled_runs``, and the indices
    # of the ends that open and close an interval.  A point is the interval
    # [a, a]: its two ends share a cell, so no group separates them.
    points, xs, opening, closing = [], [], set(), set()
    top = (1 << max_gen) - 1
    for k, c, s, div, mul, off, lefts, rights in _scaled_runs(pieces, q0, max_gen):
        for a, b in zip(lefts, rights):
            opening.add(len(xs))
            closing.add(len(xs) + 1)
            points += [(a * mul - off, div), (b * mul - off, div)]
            xs += [max((a * k - c) >> s, 0), min((b * k - c) >> s, top)]
    # The stand-ins at -dist(lo)/side on the left and 1 + dist(hi)/side on
    # the right.
    before, after = (
        (r.numerator << max_gen, r.denominator) for r in (-d_lo / q0.side, 1 + d_hi / q0.side)
    )

    def neighbour(k):
        return before if k < 0 else after if k == len(points) else points[k]

    groups = [(0, len(xs))]
    for j in range(1, max_gen + 1):
        shift = max_gen - j
        nxt = []
        for s, t in groups:
            k = xs[s] >> shift
            if xs[t - 1] >> shift != k:
                m = bisect_left(xs, (k + 1) << shift, s, t)
                nxt += [(s, m), (m, t)]
                continue
            nxt.append((s, t))
            # The pore is the sibling of cell k, on the other side of the
            # group, unless an interval reaches across it.
            if k & 1:
                if s in closing:
                    continue
                (n1, m1), (n2, m2) = neighbour(s - 1), points[s]
            else:
                if t - 1 in opening:
                    continue
                (n1, m1), (n2, m2) = points[t - 1], neighbour(t)
            m = math.lcm(m1, m2)
            n1, n2 = n1 * (m // m1), n2 * (m // m2)
            h = m << shift
            a = (k ^ 1) * h
            b = a + h
            yield h, min(a - n1, n2 - a), min(b - n1, n2 - b), m << max_gen
        groups = nxt


def enumerate_pores(oracle: SetOracle, q0: Cube, max_gen: int) -> PoreFamily:
    """Aggregate the pores of ``q0`` into a generation histogram, from one
    query of the set's pieces in the window."""
    return _pore_family(oracle, q0, oracle.piece_runs(*q0.as_interval()), max_gen)


def fraction_length(family: PoreFamily, query: FractionQuery) -> Bracket:
    """Extremal side length at which one side of the histogram reaches mass t.

    Largest side: the greatest length L with mass{l >= L} >= t|Q0|.
    Smallest side: the least length L with mass{l <= L} >= t|Q0|.

    With t = a/b and J = max_generation, a mass of u units reaches t|Q0|
    exactly when b u >= a << J.  One walk over the generations, largest
    length first or smallest first, finds the crossing.  The tail lies below
    every enumerated length: on the smallest side it counts first when it is
    pore mass, and a mixed tail may or may not be pore mass, so the walk also
    notes where counting it would cross and brackets the answer between the
    two crossings; the bracket is exact when they meet.
    """
    J, tail = family.max_generation, family.tail
    a, b = query.t.numerator, query.t.denominator
    need = a << J
    if b * tail >= min(a, b - a) << J:
        raise InsufficientDepthError(
            "unresolved tail mass straddles the requested threshold",
            tail_mass=family.tail_mass,
        )
    smallest = query.side is Side.SMALLEST
    pore_tail = tail if smallest and family.tail_is_pore_mass else 0
    mixed_tail = tail if smallest and not family.tail_is_pore_mass else 0
    before = cum = pore_tail
    optimistic = None
    for gen in sorted(family.counts, reverse=smallest):
        before, cum = cum, cum + (family.counts[gen] << (J - gen))
        if optimistic is None and b * (cum + mixed_tail) >= need:
            optimistic = gen
        if b * cum >= need:
            break
    # The threshold inequalities: the side's mass reaches t|Q0| at the
    # returned length, and falls short of it at the length before.
    if not b * before < need <= b * cum:
        raise AssertionError("the pore walk missed the threshold")
    return Bracket(family.length_of(optimistic), family.length_of(gen))


class RatioRow(namedtuple("RatioRow", "cube_id s largest smallest note", defaults=("",))):
    __slots__ = ()

    @property
    def depth_ok(self) -> bool:
        return self.largest is not None and self.largest.exact and self.smallest.exact

    @property
    def ratio(self) -> Fraction | None:
        return self.largest.value / self.smallest.value if self.depth_ok else None


class RatioReport(namedtuple("RatioReport", "s rows")):
    __slots__ = ()

    @property
    def max_ratio(self) -> Fraction | None:
        ratios = [r.ratio for r in self.rows if r.ratio is not None]
        return max(ratios) if ratios else None


def ratio_condition(
    oracle: SetOracle, cubes: list[Cube], s: Fraction, max_gen: int = 40
) -> RatioReport:
    """Per-cube largest/smallest fraction lengths at threshold s and their ratio.

    The maximal ratio over the supplied cubes is the fitted uniform constant.
    Cubes disjoint from the set are skipped with a note.  Values of s at or
    above 1/(1+2**n) = 1/3 on the line are allowed for exploration but draw a
    warning, since the single-threshold characterization needs s below that
    bound.
    """
    s = Fraction(s)
    if not 0 < s < 1:
        raise PreconditionError("s must lie in (0, 1)")
    if s >= Fraction(1, 3):
        warnings.warn(
            "s is at or above 1/(1+2^n); ratios are exploratory only",
            stacklevel=2,
        )
    rows = []
    for i, cube in enumerate(cubes):
        cube_id = f"{i}:{cube}"
        pieces = oracle.piece_runs(*cube.as_interval())
        if not pieces:
            rows.append(RatioRow(cube_id, s, None, None, "disjoint from set; skipped"))
            continue
        family = _pore_family(oracle, cube, pieces, max_gen)
        try:
            big = fraction_length(family, FractionQuery(s, Side.LARGEST))
            small = fraction_length(family, FractionQuery(s, Side.SMALLEST))
            rows.append(RatioRow(cube_id, s, big, small))
        except InsufficientDepthError as err:
            rows.append(RatioRow(cube_id, s, None, None, f"insufficient depth: {err}"))
    return RatioReport(s, rows)


PorosityResult = namedtuple("PorosityResult", "holds achieved_mass threshold_length maximal_length")


def weak_porosity_check(
    oracle: SetOracle,
    q0: Cube,
    porosity_sigma: Fraction,
    gamma: Fraction,
    max_gen: int = 40,
) -> PorosityResult:
    """Mass of pores at least gamma times the maximal pore length, against sigma|Q0|.

    Windows disjoint from the set pass trivially (the whole window counts).
    """
    porosity_sigma = Fraction(porosity_sigma)
    gamma = Fraction(gamma)
    if not (0 < porosity_sigma < 1 and 0 < gamma < 1):
        raise PreconditionError("sigma and gamma must lie in (0, 1)")
    pieces = oracle.piece_runs(*q0.as_interval())
    if not pieces:
        return PorosityResult(True, q0.side, None, None)
    family = _pore_family(oracle, q0, pieces, max_gen)
    if not family.counts:
        raise InsufficientDepthError(
            "no pores found at this depth", tail_mass=family.tail_mass
        )
    max_len = family.maximal_pore_length()
    threshold = gamma * max_len
    if threshold <= family.length_of(family.max_generation) and family.tail > 0:
        raise InsufficientDepthError(
            "gamma threshold reaches below the enumerated resolution",
            tail_mass=family.tail_mass,
        )
    # length_of(g) >= gamma length_of(top) exactly when den << top >= num << g.
    J, top = family.max_generation, min(family.counts)
    units = sum(
        k << (J - g)
        for g, k in family.counts.items()
        if gamma.denominator << top >= gamma.numerator << g
    )
    achieved = q0.side * Fraction(units, 1 << J)
    return PorosityResult(achieved >= porosity_sigma * q0.side, achieved, threshold, max_len)
