"""Every window report is invariant under a positive affine map.

Apply x -> lam x + tau, with lam > 0 rational, to both the set and the
window.  Each dyadic subcube of the window maps onto the dyadic subcube of
the image with the same address, and every mean is taken relative to its
window, so the pore histogram and its tail stay the same, every length
scales by exactly lam, and every ratio, porosity verdict, A_p product and
A_1 quotient stays the same.  The check needs no oracle: it compares the
package with itself on the two sides of the map, on sets and denominators
that no other test draws.

A generated stage maps to the ``FinitePoints`` of its mapped points, so its
one run over a shared denominator is compared with one run per point.
Windows have ends over 97, 101 or 103, off every generator grid, so no window
is an envelope and both sides take the same mean path.
"""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from poremetrics.dyadic import Cube
from poremetrics.errors import InsufficientDepthError, PreconditionError
from poremetrics.pores import (
    FractionQuery,
    Side,
    enumerate_pores,
    fraction_length,
    ratio_condition,
    weak_porosity_check,
)
from poremetrics.rationals import Bracket
from poremetrics.setmodels import BoxUnion, ContractionSequence, FinitePoints, Generated
from poremetrics.weights import ApQuery, a1_quotient, ap_product

SEQS = (
    ContractionSequence.half_harmonic(),
    ContractionSequence.constant(Fraction(1, 2)),
    ContractionSequence.constant(Fraction(2, 3)),
    ContractionSequence.constant(Fraction(1, 4)),
    ContractionSequence.constant(1),
)
# (alpha, p): both signs of alpha.  alpha = 3/2 and -2 each have a mean that
# diverges on a window meeting the set; the exponents of alpha = -2 are
# integers, so its product is exact on a window near the set.
AP = (
    (Fraction(1, 3), Fraction(2)),
    (Fraction(-1, 3), Fraction(3, 2)),
    (Fraction(1, 2), Fraction(2)),
    (Fraction(-2), Fraction(2)),
    (Fraction(3, 2), Fraction(2)),
)
COORDS = st.fractions(-6, 6, max_denominator=12)
SETTINGS = settings(max_examples=200, derandomize=True, deadline=None, report_multiple_bugs=False)


@st.composite
def sets(draw):
    """(oracle, image, hull): a set, the map taking it to its image, and an
    interval that holds the set."""
    kind = draw(st.sampled_from(("cloud", "boxes", "generated")))
    if kind == "cloud":
        points = draw(st.lists(COORDS, min_size=1, max_size=12))
        return FinitePoints(points), lambda f: FinitePoints(map(f, points)), (min(points), max(points))
    if kind == "boxes":
        widths = st.one_of(st.just(Fraction(0)), st.fractions(0, 3, max_denominator=12))
        spans = [(a, a + w) for a, w in draw(st.lists(st.tuples(COORDS, widths), min_size=1, max_size=6))]
        boxes = lambda f: BoxUnion([((f(a),), (f(b),)) for a, b in spans])  # noqa: E731
        return boxes(lambda x: x), boxes, (min(a for a, _ in spans), max(b for _, b in spans))
    g = Generated(draw(st.sampled_from(SEQS)), draw(st.integers(0, 6)), draw(st.booleans()))
    return g, lambda f: FinitePoints(map(f, g.points)), g.envelope


@st.composite
def windows(draw, hull):
    """An off-grid window that meets the set, lies inside one of its gaps, or
    lies outside it at a distance on either side of twice its side."""
    lo, hi = hull
    den = draw(st.sampled_from((97, 101, 103)))
    start = draw(st.integers(int((lo - 2) * den), int((hi + 1) * den)).filter(lambda n: n % den))
    length = draw(st.one_of(st.integers(1, 3 * den), st.integers(1, int(hi - lo + 4) * den)))
    return Cube.interval(Fraction(start, den), Fraction(start + length, den))


@st.composite
def cases(draw):
    oracle, image, hull = draw(sets())
    window = draw(windows(hull))
    lam = draw(st.fractions(0, 50, max_denominator=100).filter(lambda x: x > 0))
    tau = draw(st.fractions(-100, 100, max_denominator=100))
    return oracle, window, lam, tau, image, draw(st.sampled_from((1, 5, 20)))


def outcome(call, *args):
    """('value', result) or ('raised', the error's type, message and tail mass)."""
    try:
        return "value", call(*args)
    except (PreconditionError, InsufficientDepthError) as err:
        return "raised", type(err), str(err), getattr(err, "tail_mass", None)


def same_outcome(before, after, scale):
    """True when both sides returned a value, which the caller compares;
    otherwise both raised the same error, with the tail mass scaled by
    ``scale``."""
    assert before[0] == after[0], (before, after)
    if before[0] == "raised":
        kind, message, tail = before[1:]
        assert after[1:] == (kind, message, None if tail is None else tail * scale)
        return False
    return True


def scaled(bracket, lam):
    return None if bracket is None else Bracket(bracket.lo * lam, bracket.hi * lam)


def agree(a, b):
    """Exact values are equal, an exact value lies in an inexact bracket, and
    two inexact brackets intersect."""
    if a.exact and b.exact:
        assert a.lo == b.lo, (a, b)
    else:
        assert a.lo <= b.hi and b.lo <= a.hi, (a, b)


@SETTINGS
@given(cases())
# The origin in the unit window and in a window with a point inside: exact
# products and quotients.
@example((FinitePoints([0]), Cube.interval(0, 1), Fraction(3), Fraction(-5), lambda f: FinitePoints([f(0)]), 20))
@example((FinitePoints([0]), Cube.interval(-1, 3), Fraction(1, 7), Fraction(2), lambda f: FinitePoints([f(0)]), 5))
def test_reports_are_invariant_under_positive_affine_maps(case):
    oracle, window, lam, tau, image, max_gen = case
    f = lambda x: lam * x + tau  # noqa: E731
    mapped, cube = image(f), Cube.interval(f(window.lo), f(window.hi))

    def both(call, *args):
        return outcome(call, oracle, window, *args), outcome(call, mapped, cube, *args)

    before, after = both(enumerate_pores, max_gen)
    if same_outcome(before, after, lam):
        family, image_family = before[1], after[1]
        assert (family.counts, family.tail) == (image_family.counts, image_family.tail)
        for t in (Fraction(1, 10), Fraction(1, 3)):
            for side in Side:
                query = FractionQuery(t, side)
                length = outcome(fraction_length, family, query)
                image_length = outcome(fraction_length, image_family, query)
                if same_outcome(length, image_length, lam):
                    assert scaled(length[1], lam) == image_length[1]

    (row,) = ratio_condition(oracle, [window], Fraction(1, 10), max_gen).rows
    (image_row,) = ratio_condition(mapped, [cube], Fraction(1, 10), max_gen).rows
    assert (row.ratio, row.note) == (image_row.ratio, image_row.note)
    assert (scaled(row.largest, lam), scaled(row.smallest, lam)) == (image_row.largest, image_row.smallest)

    before, after = both(weak_porosity_check, Fraction(1, 4), Fraction(1, 8), max_gen)
    if same_outcome(before, after, lam):
        holds, mass, threshold, maximal = before[1]
        assert after[1] == (holds, mass * lam, *(None if x is None else x * lam for x in (threshold, maximal)))

    for alpha, p in AP:
        before, after = both(ap_product, ApQuery(alpha, p), max_gen)
        if same_outcome(before, after, 1):
            assert (before[1].case, before[1].path) == (after[1].case, after[1].path)
            agree(before[1].product, after[1].product)

    before, after = both(a1_quotient, Fraction(1, 3), max_gen)
    if same_outcome(before, after, 1):
        agree(before[1], after[1])
