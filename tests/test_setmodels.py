import json
import math
import random
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    box_scan_components,
    box_scan_distance,
    box_scan_measure_zero,
    box_scan_meets,
    component_length_multiset,
    components,
    fraction_generate,
    meets,
    spec_dict,
    stage_value,
)
from poremetrics.dyadic import Cube
from poremetrics.errors import ParseError, PreconditionError
from poremetrics.rationals import format_rational, parse_rational
from poremetrics.setmodels import (
    BoxUnion,
    ContractionSequence,
    FinitePoints,
    Generated,
    IntegerLattice,
    envelope_length,
    oracle_from_spec,
)

HALF = ContractionSequence.constant(Fraction(1, 2))
HH = ContractionSequence.half_harmonic()


class TestGenerate:
    def test_level_zero(self):
        g = Generated(HALF, 0)
        assert g.points == (0, 1)
        assert g.envelope == (0, 1)

    def test_level_one_constant_half(self):
        g = Generated(HALF, 1)
        assert g.points == (0, 1, Fraction(3, 2), Fraction(5, 2))
        assert g.envelope == (0, Fraction(5, 2))

    def test_level_one_half_harmonic(self):
        assert Generated(HH, 1).points == (0, 1, Fraction(3, 2), Fraction(5, 2))

    def test_constant_one_gives_consecutive_integers(self):
        g = Generated(ContractionSequence.constant(1), 2)
        assert g.points == tuple(range(10))
        assert g.envelope == (0, 9)

    @pytest.mark.parametrize("seq", [HALF, HH, ContractionSequence.constant(Fraction(3, 4))])
    @pytest.mark.parametrize("level", [0, 1, 2, 3, 5])
    def test_point_count(self, seq, level):
        pts = Generated(seq, level).points
        assert len(pts) == 3**level + 1
        assert all(b > a for a, b in zip(pts, pts[1:]))

    @pytest.mark.parametrize("seq", [HALF, HH])
    def test_envelope_recursion(self, seq):
        prev = Fraction(1)
        for level in range(1, 13):
            cur = envelope_length(seq, level)
            assert cur == (2 + stage_value(seq, level)) * prev
            prev = cur

    def test_envelope_matches_points(self):
        for level in range(0, 8):
            g = Generated(HH, level)
            assert g.envelope == (g.points[0], g.points[-1])
            assert g.envelope[1] == envelope_length(HH, level)

    def test_reflection(self):
        g = Generated(HALF, 2, with_reflection=True)
        pts = g.points
        assert g.envelope == (-Fraction(25, 4), Fraction(25, 4))
        assert all(-p in pts for p in pts)
        assert pts.count(0) == 1

    @pytest.mark.parametrize("reflect", [False, True])
    @pytest.mark.parametrize(
        "seq",
        [HALF, ContractionSequence.constant(Fraction(2, 3)), ContractionSequence.constant(1), HH],
    )
    def test_matches_fraction_recursion(self, seq, reflect):
        # The integer recursion over the common denominator gives the same
        # Fraction points, envelope and order as the plain Fraction one.
        for level in range(10):
            g = Generated(seq, level, reflect)
            assert repr((g.points, g.envelope)) == repr(fraction_generate(seq, level, reflect))

    def test_level_cap(self):
        # The cap fires where points are needed; building the set, its
        # envelope and its envelope lengths enumerate nothing.
        g = Generated(HALF, 15)
        assert g.envelope == (0, envelope_length(HALF, 15))
        assert g.envelope_level(Cube.interval(*g.envelope)) == 15
        for query in (lambda: g.points, lambda: g.numerators, lambda: g.distance(Fraction(1, 3))):
            with pytest.raises(PreconditionError, match="capped at level 14"):
                query()
        with pytest.raises(PreconditionError, match="level must be nonnegative"):
            Generated(HALF, -1)

    @pytest.mark.parametrize("seq", [HALF, HH])
    def test_component_multiset_recursion(self, seq):
        # Gap lengths at level n are two copies of the previous multiset plus
        # a contracted copy.
        for level in range(1, 9):
            prev, cur = Generated(seq, level - 1), Generated(seq, level)
            prev_lengths = component_length_multiset(prev.points, *prev.envelope)
            cur_lengths = component_length_multiset(cur.points, *cur.envelope)
            c = stage_value(seq, level)
            expected = sorted(prev_lengths * 2 + [c * x for x in prev_lengths])
            assert cur_lengths == expected


class TestDistance:
    def test_lattice(self):
        assert IntegerLattice().distance(Fraction(7, 3)) == Fraction(1, 3)

    def test_two_points(self):
        assert FinitePoints((0, 1)).distance(Fraction(1, 2)) == Fraction(1, 2)

    def test_generated(self):
        g = Generated(HALF, 1)
        assert g.distance(Fraction(5, 4)) == Fraction(1, 4)

    def test_zero_exactly_on_members(self):
        g = Generated(HALF, 3)
        for p in g.points:
            assert g.distance(p) == 0
        assert g.distance(p + Fraction(1, 1000)) > 0

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=48), min_size=1, max_size=6, unique=True),
        st.fractions(min_value=-5, max_value=5, max_denominator=97),
        st.fractions(min_value=-5, max_value=5, max_denominator=89),
    )
    def test_lipschitz(self, pts, x, y):
        oracle = FinitePoints(tuple(sorted(pts)))
        assert abs(oracle.distance(x) - oracle.distance(y)) <= abs(x - y)


class TestComponents:
    def test_lattice_unit(self):
        comps = components(IntegerLattice(), 0, 1)
        assert [(c.left, c.right) for c in comps] == [(0, 1)]

    def test_generated_level_one(self):
        g = Generated(HALF, 1)
        comps = components(g, 0, Fraction(5, 2))
        assert [(c.left, c.right) for c in comps] == [
            (0, 1),
            (1, Fraction(3, 2)),
            (Fraction(3, 2), Fraction(5, 2)),
        ]
        assert [c.length for c in comps] == [1, Fraction(1, 2), 1]

    def test_boundary_clipping(self):
        comps = components(FinitePoints((0, 1)), -1, 2)
        assert [(c.left, c.right) for c in comps] == [(-1, 0), (0, 1), (1, 2)]

    def test_total_length(self):
        g = Generated(HH, 4)
        comps = components(g, Fraction(1, 3), Fraction(19, 2))
        assert sum(c.length for c in comps) == Fraction(19, 2) - Fraction(1, 3)

    def test_lattice_window_starting_on_a_point(self):
        # A set point equal to the lower end cuts nothing; an empty run list
        # leaves the whole window.
        Z = IntegerLattice()
        assert Z.piece_runs(Fraction(1, 3), Fraction(1, 2)) == []
        assert [(c.left, c.right) for c in components(Z, Fraction(1, 3), Fraction(1, 2))] == [
            (Fraction(1, 3), Fraction(1, 2))
        ]
        assert [(c.left, c.right) for c in components(Z, 1, Fraction(7, 2))] == [
            (1, 2), (2, 3), (3, Fraction(7, 2))
        ]

    def test_box_union(self):
        boxes = BoxUnion((((Fraction(0),), (Fraction(1, 4),)),))
        comps = components(boxes, Fraction(-1, 2), 1)
        assert [(c.left, c.right) for c in comps] == [
            (Fraction(-1, 2), 0),
            (Fraction(1, 4), 1),
        ]
        assert not boxes.is_measure_zero()


def _random_boxes(rng):
    """One to six closed intervals; each after the first lies anywhere on the
    1/8 grid of [-1, 2], or touches, nests in or overlaps an earlier one, or
    is a point at one of its ends.  One union in five holds points only."""
    grid = [Fraction(k, 8) for k in range(-8, 17)]
    points_only = rng.random() < 0.2
    boxes = []
    for _ in range(rng.randint(1, 6)):
        lo, hi = sorted(rng.sample(grid, 2))
        if points_only:
            hi = lo
        if boxes:
            a, b = rng.choice(boxes)
            kind = rng.choice(("free", "touch", "nest", "overlap", "point"))
            if kind == "touch":
                lo, hi = b, b + hi - lo
            elif kind == "nest":
                lo, hi = a + (b - a) / 4, b - (b - a) / 4
            elif kind == "overlap":
                lo, hi = (a + b) / 2, b + hi - lo
            elif kind == "point":
                lo = hi = rng.choice((a, b))
        boxes.append((lo, hi))
    return boxes


BOX_CASES = [
    [(Fraction(0), Fraction(1, 4)), (Fraction(1, 4), Fraction(1, 2))],  # touching
    [(Fraction(0), Fraction(1)), (Fraction(1, 4), Fraction(1, 2))],  # nested
    [(Fraction(1, 4), Fraction(3, 4)), (Fraction(0), Fraction(1, 2))],  # overlapping
    [(Fraction(1, 3), Fraction(1, 3)), (Fraction(0), Fraction(1, 4))],  # a point
    [(Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 2))],  # one point twice
    [(Fraction(0), Fraction(1, 4)), (Fraction(1, 4), Fraction(1, 4))],  # a point at an end
]
BOX_CASES += [_random_boxes(random.Random(seed)) for seed in range(60)]


def _box_queries(boxes, rng):
    """Query points: every interval end, its neighbours 1/16 away, the
    midpoints between them, and two far points.  Windows: each pair of
    neighbouring query points, and 40 other pairs."""
    ends = sorted({e + d for box in boxes for e in box for d in (-Fraction(1, 16), 0, Fraction(1, 16))})
    ends = sorted({Fraction(-3, 2), Fraction(5, 2), *ends, *((a + b) / 2 for a, b in zip(ends, ends[1:]))})
    pairs = [(a, b) for i, a in enumerate(ends) for b in ends[i + 2:]]
    return ends, list(zip(ends, ends[1:])) + rng.sample(pairs, min(40, len(pairs)))


class TestBoxUnionMatchesScan:
    # The merged, bisected union against a scan of every interval as given.

    @pytest.mark.parametrize("query", ["distance", "meets", "components"])
    def test_queries(self, query):
        rng = random.Random(query)
        for boxes in BOX_CASES:
            union = BoxUnion(tuple(((lo,), (hi,)) for lo, hi in boxes))
            points, windows = _box_queries(boxes, rng)
            if query == "distance":
                for x in points:
                    assert union.distance(x) == box_scan_distance(boxes, x), (boxes, x)
            for lo, hi in windows:
                if query == "meets":
                    assert meets(union, lo, hi) == box_scan_meets(boxes, lo, hi), (boxes, lo, hi)
                    assert meets(union, *Cube.interval(lo, hi).as_interval()) == box_scan_meets(boxes, lo, hi)
                elif query == "components":
                    got = [(c.left, c.right) for c in components(union, lo, hi)]
                    assert got == box_scan_components(boxes, lo, hi), (boxes, lo, hi)

    def test_measure_zero(self):
        for boxes in BOX_CASES:
            union = BoxUnion(tuple(((lo,), (hi,)) for lo, hi in boxes))
            assert union.is_measure_zero() == box_scan_measure_zero(boxes), boxes

    def test_touching_nested_and_overlapping_intervals_merge(self):
        for boxes, hi in zip(BOX_CASES[:3], (Fraction(1, 2), Fraction(1), Fraction(3, 4))):
            union = BoxUnion(tuple(((lo,), (hi,)) for lo, hi in boxes))
            assert (union.los, union.his) == ((Fraction(0),), (hi,))


class TestHigherDimensionalBrackets:
    def test_cube_dimension_must_match_the_set(self):
        # Sets lie on the line: a box or a spec-file point with two
        # coordinates is refused, and the message names the dimension.
        with pytest.raises(PreconditionError, match="dimension 2"):
            BoxUnion((((Fraction(0), Fraction(0)), (Fraction(1), Fraction(1))),))
        with pytest.raises(PreconditionError, match="dimension 2"):
            oracle_from_spec({"type": "points", "points": [["1/3", "5"], ["3/4", "-2"]]})


class TestRuleNames:
    def test_unknown_rule_does_not_parse(self):
        with pytest.raises(ParseError):
            ContractionSequence("foo")
        with pytest.raises(ParseError):
            oracle_from_spec({"type": "generated", "contraction": {"rule": "foo"}, "level": 2})

    def test_constant_rule_needs_c_in_range(self):
        with pytest.raises(ParseError):
            ContractionSequence("constant")
        with pytest.raises(PreconditionError):
            ContractionSequence("constant", Fraction(3, 2))

    def test_half_harmonic_rejects_c(self):
        with pytest.raises(ParseError):
            ContractionSequence("half_harmonic", Fraction(1, 2))
        with pytest.raises(ParseError):
            oracle_from_spec(
                {"type": "generated", "contraction": {"rule": "half_harmonic", "c": "1/2"}, "level": 2}
            )
        assert ContractionSequence("half_harmonic") == HH
        assert ContractionSequence("constant", Fraction(1, 2)) == HALF


class TestStages:
    @pytest.mark.parametrize(
        "seq",
        [HH, HALF, *(ContractionSequence.constant(Fraction(c)) for c in ("1", "2/3", "1/4", "6/7"))],
        ids=["half_harmonic", "1/2", "1", "2/3", "1/4", "6/7"],
    )
    def test_pairs_are_the_reduced_factors(self, seq):
        # Every stage is c_n = a/b as a coprime pair of ints with b > 0, and
        # each call of ``stages`` starts again at c_1.
        pairs = list(islice(seq.stages(), 500))
        assert len(pairs) == 500
        for n, (a, b) in enumerate(pairs, start=1):
            assert type(a) is int and type(b) is int
            assert b > 0 and math.gcd(a, b) == 1
            assert Fraction(a, b) == stage_value(seq, n)
        assert list(islice(seq.stages(), 500)) == pairs


class TestSpecRoundTrip:
    def test_lattice(self):
        spec = spec_dict(IntegerLattice())
        assert isinstance(oracle_from_spec(spec), IntegerLattice)

    def test_points_bit_exact(self):
        oracle = FinitePoints((Fraction(-7, 3), Fraction(1, 1024), Fraction(355, 113)))
        again = oracle_from_spec(json.loads(json.dumps(spec_dict(oracle))))
        assert again.points == oracle.points

    def test_generated(self):
        oracle = Generated(HH, 3, with_reflection=True)
        again = oracle_from_spec(oracle.spec_dict())
        assert again.points == oracle.points
        assert again.seq == oracle.seq

    def test_decimal_strings_accepted(self):
        oracle = oracle_from_spec({"type": "points", "points": ["0.125", "2"]})
        assert oracle.points == (Fraction(1, 8), Fraction(2))

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.fractions(max_denominator=10**6), min_size=1, max_size=8, unique=True))
    def test_rational_strings_round_trip(self, pts):
        oracle = FinitePoints(tuple(sorted(pts)))
        again = oracle_from_spec(json.loads(json.dumps(spec_dict(oracle))))
        assert again.points == oracle.points


def test_sequence_equality_follows_rule_and_c():
    assert HALF == ContractionSequence("constant", Fraction(2, 4))
    assert hash(HALF) == hash(ContractionSequence.constant(Fraction(1, 2)))
    assert HALF != ContractionSequence.constant(Fraction(1, 3))
    assert HALF != HH and HH == ContractionSequence.half_harmonic()


def test_rational_parsing():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7/2") == Fraction(-7, 2)
    assert parse_rational("0.125") == Fraction(1, 8)
    assert parse_rational("5") == Fraction(5)
    assert format_rational(Fraction(3, 4)) == "3/4"
    assert parse_rational(format_rational(Fraction(-355, 113))) == Fraction(-355, 113)
