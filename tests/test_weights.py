import decimal
import math
import random
import time
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import (
    bfs_profiles,
    box_scan_covers,
    components,
    decimal_envelope_mean,
    fraction_profile_integral,
    meets,
    moment_prefixes,
    over_one_den,
    per_component_mean,
    per_component_peak,
    to_decimal,
)
from poremetrics import cli
from poremetrics.dyadic import Cube
from poremetrics.errors import PreconditionError
from poremetrics.rationals import Bracket
from poremetrics.setmodels import (
    BoxUnion,
    ContractionSequence,
    FinitePoints,
    Generated,
    IntegerLattice,
    envelope_cube,
)
from poremetrics.weights import (
    ApQuery,
    ApResult,
    ApScan,
    _combine_product,
    _divergent_partial,
    _envelope_means,
    _Gaps,
    _means,
    _Window,
    _ScaledMean,
    _sum_terms,
    a1_quotient,
    ap_product,
    profile_integral,
)
from poremetrics.pores import enumerate_pores

UNIT = Cube.interval(0, 1)
Z = IntegerLattice()
ORIGIN = FinitePoints((Fraction(0),))


def mean_dist_power(oracle, q0, theta, max_gen=40):
    """Mean of dist(.,E)^theta over the cube, by the routes of ``ap_product``.

    On an envelope window of a generated set and for theta > -1 the mean is
    the closed form of ``_envelope_means``; elsewhere it is the gap walk.
    For theta <= -1 on a window meeting the set, the true mean is infinite;
    the bracket's lower end is the exact integral over the pores enumerated
    to ``max_gen`` and grows without bound as the depth increases.
    """
    theta = Fraction(theta)
    if (closed := _envelope_means(oracle, q0, (theta,))) is not None:
        (sm,), unit = closed, Fraction(1, 2)
    else:
        window = _Window.read(oracle, q0)
        (sm,), unit = _means(window, (theta,), max_gen, _Gaps.of(window)), q0.side
    return sm.to_mean_value(unit, theta)


def integral(h, d_left, d_right, theta):
    """profile_integral on Fractions, given to it as integer numerators over
    one denominator; it must return what the Fraction reference returns."""
    h, d_left, d_right, theta = map(Fraction, (h, d_left, d_right, theta))
    value = profile_integral(*over_one_den(h, d_left, d_right), theta)
    assert repr(value) == repr(fraction_profile_integral(h, d_left, d_right, theta))
    return value


class TestComponentIntegral:
    # Frozen by hand from the antiderivative u^(theta+1)/(theta+1):
    # an uncut gap of length h contributes 2 (h/2)^(theta+1) / (theta+1).

    # integral(length, d_left, d_right, theta) -> (value, exact).

    def test_measure(self):
        assert integral(1, 0, 0, 0)[0] == 1

    def test_inverse_sqrt(self):
        val, _ = integral(1, 0, 0, Fraction(-1, 2))
        assert math.isclose(val, 2 * math.sqrt(2), rel_tol=1e-14)

    def test_linear(self):
        assert integral(Fraction(1, 2), 0, 0, 1)[0] == Fraction(1, 16)

    def test_divergent_rejected(self):
        # The profile touches zero at theta = -1: the integral diverges.
        assert integral(1, 0, 0, -1) == (math.inf, False)

    def test_clipped_profile(self):
        # distance profile min(1 + x, 2 - x) on [0, 1]: crossover at 1/2,
        # integral = 2 F(3/2) - F(1) - F(1) with F(u) = u^2/2.
        val, _ = integral(1, 1, 1, 1)
        assert val == Fraction(9, 4) - Fraction(1, 2) - Fraction(1, 2)

    def test_one_sided_ramp(self):
        # d_left far: the right ramp governs, profile
        # min(5 + x, 1 + (1 - x)) = 2 - x on [0, 1].
        val, _ = integral(1, 5, 1, 1)
        assert val == Fraction(3, 2)


def _random_profiles(rng, count):
    """(h, d_left, d_right, theta, scale) cases: both branches, perfect
    squares and cubes next to irrational powers, zero distances, theta = -1
    and exponents on both sides of it; ``scale`` multiplies the numerators
    and the denominator, so the integer form is not in lowest terms."""
    thetas = [Fraction(k) for k in (-3, -2, -1, 0, 1, 2)] + [
        Fraction(a, b) for a, b in ((-1, 2), (1, 2), (-3, 2), (-7, 3), (-1, 3), (2, 3), (5, 4), (-5, 4))
    ]
    cases = []
    while len(cases) < count:
        den = rng.choice([1, 2, 4, 8, 9, 27, 3 * 2**5, 10**6 + 3, 2**61])
        square = rng.random() < 0.5
        pick = (lambda: Fraction(rng.randint(1, 12) ** 2, rng.choice([1, 4, 9, 16, 64]))) if square else (
            lambda: Fraction(rng.randint(1, 10**5), den)
        )
        h = pick()
        d_left, d_right = pick(), pick()
        if rng.random() < 0.2:
            d_left = Fraction(0)
        if rng.random() < 0.2:
            d_right = Fraction(0)
        if rng.random() < 0.3:
            d_right = d_left + h + pick()  # the ramp branch
        cases.append((h, d_left, d_right, rng.choice(thetas), rng.choice([1, 1, 3, 2**40])))
    return cases


class TestIntegerProfileIntegral:
    # The integer profile integral against the Fraction reference: equal
    # values and exactness flags, and floats equal to the bit.

    def test_random_profiles(self):
        import random

        rng = random.Random(14)
        seen = set()
        for h, d_left, d_right, theta, scale in _random_profiles(rng, 3000):
            *nums, den = over_one_den(h, d_left, d_right)
            value, exact = profile_integral(*(k * scale for k in nums), den * scale, theta)
            ref_value, ref_exact = fraction_profile_integral(h, d_left, d_right, theta)
            assert exact == ref_exact
            assert type(value) is type(ref_value)
            assert repr(value) == repr(ref_value)
            branch = "ramp" if abs(d_left - d_right) > h else "peak"
            seen.add((branch, exact, value == math.inf, theta == -1))
            if min(d_left, d_right) == 0 and value != math.inf:
                seen.add(("zero distance", exact))
        # Both branches, exact and irrational values, the divergent case,
        # theta = -1 and finite integrals from a zero end distance.
        assert {("ramp", True, False, False), ("peak", True, False, False),
                ("ramp", False, False, False), ("peak", False, False, False),
                ("peak", False, True, False), ("peak", False, False, True),
                ("ramp", False, False, True), ("zero distance", True), ("zero distance", False)} <= seen

    def test_exact_and_irrational_powers(self):
        # theta = -3/2 over [0, 1] with both end distances d: the integral is
        # 2 F(1/2 + d) - 2 F(d) with F(u) = -2 u^(-1/2).  For d = 1/16 both
        # powers are rational (the sum 32/3); for d = 1/8 the peak 5/8 is not.
        theta = Fraction(-3, 2)
        assert profile_integral(16, 1, 1, 16, theta) == (Fraction(32, 3), True)
        assert profile_integral(32, 2, 2, 32, theta) == (Fraction(32, 3), True)
        value, exact = profile_integral(8, 1, 1, 8, theta)
        assert not exact
        assert value == 2 * (-2 * (5 / 8) ** -0.5) - 2 * (-2 * (1 / 8) ** -0.5)


class TestMeanDistPower:
    def test_origin_inverse_sqrt(self):
        mv = mean_dist_power(ORIGIN, UNIT, Fraction(-1, 2))
        assert mv.exact and mv.lo == 2

    def test_origin_sqrt(self):
        mv = mean_dist_power(ORIGIN, UNIT, Fraction(1, 2))
        assert mv.exact and mv.lo == Fraction(2, 3)

    def test_lattice_normalization(self):
        mv = mean_dist_power(Z, UNIT, 0)
        assert mv.exact and mv.lo == 1

    def test_lattice_inverse_sqrt_closed_form(self):
        # 2 * int_0^(1/2) x^(-1/2) dx = 2 sqrt(2)
        mv = mean_dist_power(Z, UNIT, Fraction(-1, 2))
        assert not mv.exact
        assert mv.lo <= 2 * math.sqrt(2) <= mv.hi
        assert mv.hi - mv.lo < 1e-9

    def test_eq3_sandwich_analytic(self):
        # E = {0} on [0, 1): the dyadic sum is geometric with ratio 2^-(theta+1).
        # The eq. (3) constants on the line are the in-pore distance to the
        # pore boundary, 2^-theta/(theta+1), and the parent's length, 2^theta.
        for theta in (Fraction(-1, 2), Fraction(1, 2), Fraction(2)):
            bounds = (2.0 ** -float(theta) / float(theta + 1), 2.0 ** float(theta))
            c1, c2 = min(bounds), max(bounds)
            ratio = Fraction(1, 2) ** (theta + 1) if theta.denominator == 1 else None
            full_sum = (
                float(ratio / (1 - ratio))
                if ratio is not None
                else (2.0 ** -float(theta + 1)) / (1 - 2.0 ** -float(theta + 1))
            )
            mean = mean_dist_power(ORIGIN, UNIT, theta)
            mid = float(mean.lo)
            assert c1 * full_sum <= mid * (1 + 1e-12)
            assert mid <= c2 * full_sum * (1 + 1e-12)

    def test_eq3_lower_half_on_truncated_sums(self):
        import random

        theta = Fraction(-1, 2)
        c1 = min(2.0 ** -float(theta) / float(theta + 1), 2.0 ** float(theta))
        rng = random.Random(7)
        cases = [
            ((Fraction(0), Fraction(1, 3), Fraction(1)), UNIT),
            ((Fraction(1, 7),), Cube.interval(0, Fraction(1, 2))),
        ]
        while len(cases) < 14:
            den = rng.choice([2, 3, 5, 8, 16])
            pts = tuple(sorted({Fraction(rng.randint(-2 * den, 2 * den), den) for _ in range(rng.randint(1, 5))}))
            lo = Fraction(rng.randint(-8, 8), 4)
            window = Cube.interval(lo, lo + Fraction(2) ** rng.randint(-2, 2))
            if meets(FinitePoints(pts), *window.as_interval()):
                cases.append((pts, window))
        for pts, window in cases:
            oracle = FinitePoints(pts)
            fam = enumerate_pores(oracle, window, 40)
            partial = sum(
                float(length) ** float(theta) * float(mass) / float(window.side)
                for _, length, _, mass in fam.entries()
            )
            mean = mean_dist_power(oracle, window, theta)
            assert c1 * partial <= float(mean.hi) * (1 + 1e-12)

    def test_divergent_mean_reports_growing_lower_bound(self):
        prev = None
        for depth in (5, 10, 20, 40):
            mv = mean_dist_power(ORIGIN, UNIT, Fraction(-3, 2), max_gen=depth)
            assert mv.hi == math.inf
            assert prev is None or mv.lo > prev
            prev = mv.lo

    def test_divergent_on_touching_pore(self):
        # E = {0, 1}: every pore accumulates toward both endpoints, and the
        # pore [1/2, 1) touches 1, so even the truncated integral is infinite.
        oracle = FinitePoints((0, 1))
        mv = mean_dist_power(oracle, UNIT, Fraction(-3, 2), max_gen=10)
        assert mv.lo == math.inf and mv.hi == math.inf

    def test_positive_measure_set_contributions(self):
        # E = [0, 1/4]: dist vanishes on a quarter of the window, so the
        # zeroth power still averages to one, positive powers integrate only
        # over the gap, and negative powers diverge.
        from poremetrics.setmodels import BoxUnion

        boxes = BoxUnion((((Fraction(0),), (Fraction(1, 4),)),))
        assert mean_dist_power(boxes, UNIT, 0).lo == 1
        linear = mean_dist_power(boxes, UNIT, 1)
        # Gap (1/4, 1) with distances 0 and 3/4 beyond: profile x - 1/4.
        assert linear.exact and linear.lo == Fraction(9, 32)
        inv = mean_dist_power(boxes, UNIT, Fraction(-1, 2))
        assert inv.hi == math.inf and inv.lo > 0


class TestApProduct:
    def test_origin_four_thirds_exact(self):
        res = ap_product(ORIGIN, UNIT, ApQuery(Fraction(1, 2), 2))
        assert res.case == "III"
        assert res.product.exact and res.product.lo == Fraction(4, 3)

    def test_dilation_invariance_exact(self):
        for k in range(-20, 21):
            cube = Cube.interval(0, Fraction(2) ** k)
            res = ap_product(ORIGIN, cube, ApQuery(Fraction(1, 2), 2))
            assert res.product.exact and res.product.lo == Fraction(4, 3)

    def test_case_one_short_circuit(self):
        res = ap_product(ORIGIN, Cube.interval(5, 6), ApQuery(Fraction(1, 2), 2))
        assert res.case == "I"
        assert res.product.lo == 1
        assert res.product.hi == 2  # 4^(1/2), exact because the root is rational

    def test_case_two_consistency(self):
        # A disjoint cube at small gap is controlled by its concentric 4-fold
        # dilation [15/16, 23/16): product(Q0) <= 4^(n p) product(4 Q0).
        q0 = Cube.interval(Fraction(9, 8), Fraction(5, 4))
        res_small = ap_product(Z, q0, ApQuery(Fraction(1, 2), 2))
        assert res_small.case == "II"
        res_big = ap_product(Z, Cube.interval(Fraction(15, 16), Fraction(23, 16)), ApQuery(Fraction(1, 2), 2))
        assert res_big.case == "III"
        assert float(res_small.product.lo) <= 16 * float(res_big.product.hi)

    def test_monotone_in_p(self):
        # For q > p the product with the transferred weight cannot grow.
        for cube in (UNIT, Cube.interval(0, 4)):
            prev = None
            for p in (Fraction(3, 2), 2, 3, 5):
                res = ap_product(Z, cube, ApQuery(Fraction(1, 2), p))
                val = float(res.product.hi)
                if prev is not None:
                    assert val <= prev * (1 + 1e-9)
                prev = val

    def test_holder_floor(self):
        g = Generated(ContractionSequence.half_harmonic(), 6)
        for m in range(7):
            window = Cube.interval(0, g.points[3**m])
            res = ap_product(g, window, ApQuery(Fraction(1, 3), 2), max_gen=25)
            assert res.product.hi >= 1

    def test_divergent_alpha_grows_in_depth_and_not_in_scale(self):
        q = ApQuery(Fraction(3, 2), 2)
        sups = []
        for depth in (5, 10, 15):
            vals = [
                ap_product(ORIGIN, Cube.interval(0, Fraction(1, 2**k)), q, max_gen=depth).product.lo
                for k in range(1, 11)
            ]
            assert max(vals) / min(vals) < 1 + 1e-9  # scale invariance
            sups.append(max(vals))
        assert sups[0] < sups[1] < sups[2]

    def test_p_one_rejected(self):
        with pytest.raises(PreconditionError):
            ap_product(ORIGIN, UNIT, ApQuery(Fraction(1, 2), 1))

    def test_two_sided_sweep_bounded_vs_divergent(self):
        # Cubes [-2^k, 2^j) around the origin: the alpha = 1/2 product stays
        # bounded over the whole sweep; for alpha = 3/2 the symmetric cubes
        # (where 0 is a grid point, so a pore closure touches the set) report
        # an exactly infinite product, and on the rest the certified lower
        # bound grows with depth.
        cubes = {
            (k, j): Cube.interval(-(Fraction(2) ** k), Fraction(2) ** j)
            for k in range(-3, 4)
            for j in range(-3, 4)
        }
        sup_half = max(
            float(ap_product(ORIGIN, c, ApQuery(Fraction(1, 2), 2), max_gen=40).product.hi)
            for c in cubes.values()
        )
        assert sup_half < 4
        for (k, j), cube in cubes.items():
            lo10 = ap_product(ORIGIN, cube, ApQuery(Fraction(3, 2), 2), max_gen=10).product.lo
            lo25 = ap_product(ORIGIN, cube, ApQuery(Fraction(3, 2), 2), max_gen=25).product.lo
            if k == j:
                assert lo10 == math.inf and lo25 == math.inf
            else:
                assert lo10 < lo25 < math.inf


COORDS = st.fractions(-6, 6, max_denominator=12)
POSITIVE = st.fractions(0, 1, max_denominator=12).filter(lambda x: x > 0)
# The edits of a motif: its gaps (0) or its piece lengths (1) reversed, or
# their first and last averaged.  Each keeps both totals.
EDITS = st.lists(st.tuples(st.sampled_from((0, 1)), st.sampled_from(("reverse", "average"))), max_size=2)


def _motif(gaps, lengths, edits):
    """The pieces (x, x + w) of ``lengths`` from 0 in order, ``gaps`` apart,
    after the ``edits``."""
    lists = [list(gaps), list(lengths)]
    for which, how in edits:
        xs = lists[which]
        if how == "reverse":
            xs.reverse()
        elif xs:
            xs[0] = xs[-1] = (xs[0] + xs[-1]) / 2
    x, pieces = Fraction(0), []
    for gap, width in zip([0, *lists[0]], lists[1]):
        pieces.append((x + gap, x + gap + width))
        x += gap + width
    return pieces


@st.composite
def affine_scans(draw):
    """(oracle, cubes): windows of one set in which consecutive windows are
    often affine images of each other, with the set mapped along.
    - Dyadic scales of one window about an isolated point of a cloud; near
      the cloud's other points the geometry changes.
    - One window over copies of a motif of intervals and points in a
      ``BoxUnion``, translated and scaled.  A copy may reverse or average
      its gaps or its piece lengths, which keeps the window's end gaps and
      the measure inside: its gap walk then changes, or only where the
      pieces lie.
    - One window over the three copies of the previous stage in a generated
      stage: the first, the one contracted by c and the translated one.
    """
    kind = draw(st.sampled_from(("cloud", "boxes", "generated")))
    a = draw(st.fractions(-2, 2, max_denominator=8))
    b = a + 3 * draw(POSITIVE)
    if kind == "cloud":
        x0 = draw(COORDS)
        others = draw(st.lists(COORDS.filter(lambda x: abs(x - x0) >= 1), max_size=6))
        scales = [Fraction(2) ** -k for k in range(draw(st.integers(-3, 2)), draw(st.integers(3, 10)))]
        return FinitePoints([x0, *others]), [Cube.interval(x0 + a * s, x0 + b * s) for s in scales]
    if kind == "boxes":
        gaps = draw(st.lists(POSITIVE, min_size=2, max_size=4))
        widths = st.one_of(st.just(Fraction(0)), st.fractions(0, 1, max_denominator=12))
        lengths = draw(st.lists(widths, min_size=len(gaps) + 1, max_size=len(gaps) + 1))
        copies = draw(st.lists(st.tuples(st.sampled_from((1, Fraction(1, 2), 2, Fraction(1, 3))), EDITS),
                               min_size=2, max_size=4))
        # The window reaches u past the motif's first piece and v past its last.
        u, v = draw(st.fractions(0, 1, max_denominator=6)), draw(POSITIVE)
        total = sum(gaps) + sum(lengths)
        boxes = [((40 * i + s * x,), (40 * i + s * y,)) for i, (s, edits) in enumerate(copies)
                 for x, y in _motif(gaps, lengths, edits)]
        order = draw(st.lists(st.integers(0, len(copies) - 1), min_size=2, max_size=6))
        cubes = [Cube.interval(40 * i - copies[i][0] * u, 40 * i + copies[i][0] * (total + v)) for i in order]
        return BoxUnion(boxes), cubes
    seq = draw(st.sampled_from((ContractionSequence.half_harmonic(), ContractionSequence.constant(Fraction(1, 2)),
                                ContractionSequence.constant(Fraction(2, 3)))))
    level = draw(st.integers(1, 5))
    # Stage `level` is stage level - 1 on [0, l], contracted by c onto
    # [l, l + c l] and translated onto [l + c l, (2 + c) l].
    l = Generated(seq, level - 1).envelope[1]
    c = Fraction(*next(islice(seq.stages(), level - 1, None)))
    copies = ((0, 1), (l, c), ((1 + c) * l, 1))
    order = draw(st.lists(st.sampled_from(copies), min_size=2, max_size=6))
    return Generated(seq, level), [Cube.interval(t + s * l * a / 4, t + s * l * b / 4) for t, s in order]


class TestScanReuse:
    # A scan row whose window has the last window's key (whether it meets
    # the set, and its gap walk) is that window's row; it must be the row
    # the window gives alone, to the bit.
    QUERIES = tuple(ApQuery(alpha, 2) for alpha in (Fraction(1, 3), Fraction(-1, 2), Fraction(1), Fraction(3, 2)))

    def test_scan_rows_are_the_stateless_rows(self):
        reused = set()

        @settings(max_examples=120, derandomize=True, deadline=None)
        @given(affine_scans())
        def check(case):
            oracle, cubes = case
            for query in self.QUERIES:
                scan = ApScan()
                for cube in cubes:
                    alone, before = ap_product(oracle, cube, query, 12), scan.reused
                    row = ap_product(oracle, cube, query, 12, scan)
                    assert repr(row) == repr(alone)
                    if scan.reused > before:
                        reused.add(row.path)

        check()
        assert reused == {"gap_walk", "divergent"}

    def test_interval_layouts_with_one_gap_walk(self):
        # Both windows have one gap of 1/5 between two intervals, 2/5 from the
        # last interval to the upper end, at distance 2/5, and 2/5 inside the
        # set.  On the gap walk that fixes the row; the divergent row reads
        # its pores from where the intervals end, which differs.
        spans = ((0, Fraction(1, 5)), (Fraction(2, 5), Fraction(3, 5)),
                 (10, 10 + Fraction(1, 7)), (10 + Fraction(12, 35), 10 + Fraction(3, 5)))
        oracle = BoxUnion([((Fraction(lo),), (Fraction(hi),)) for lo, hi in spans])
        cubes = (Cube.interval(0, 1), Cube.interval(10, 11))
        first, second = (_Gaps.of(_Window.read(oracle, cube)) for cube in cubes)
        assert first == second
        for alpha, lows, reused in (
            (Fraction(3, 2), [22.882657423447323, 23.371358470950693], 0),
            (Fraction(1, 3), [0.42456254192240406] * 2, 1),
        ):
            scan = ApScan()
            rows = [ap_product(oracle, cube, ApQuery(alpha, 2), 12, scan) for cube in cubes]
            assert [row.product.lo for row in rows] == lows
            assert scan.reused == reused

    def test_interior_order_keeps_rows_apart(self):
        # Interior gaps 2/7, 6/5, 2/7 and then 2/7, 2/7, 6/5, with the window
        # reaching 1 past the end points: the same end profiles, lengths and
        # counts, but the float sums run in window order, so the rows differ
        # in the last bits.
        a, b = Fraction(2, 7), Fraction(6, 5)
        oracle = FinitePoints([0, a, a + b, 2 * a + b, 100, 100 + a, 100 + 2 * a, 100 + 2 * a + b])
        cubes = (Cube.interval(-1, 2 * a + b + 1), Cube.interval(99, 101 + 2 * a + b))
        first, second = (_Gaps.of(_Window.read(oracle, cube)) for cube in cubes)
        assert first._replace(order=()) == second._replace(order=()) and first.order != second.order
        scan = ApScan()
        rows = [ap_product(oracle, cube, ApQuery(Fraction(1, 3), 2), 12, scan) for cube in cubes]
        assert [row.product.lo for row in rows] == [1.1825492467779117, 1.1825492467779122]
        assert scan.reused == 0


class TestA1Quotient:
    def test_lattice_value(self):
        # Closed form: mean = 2 sqrt(2), ess-inf of dist^(-1/2) is sqrt(2)
        # at the gap midpoint, so the quotient is exactly 2.
        mv = a1_quotient(Z, UNIT, Fraction(1, 2))
        assert mv.lo <= 2 <= mv.hi
        assert mv.hi - mv.lo < 1e-9

    def test_origin_value(self):
        mv = a1_quotient(ORIGIN, UNIT, Fraction(1, 2))
        assert mv.exact and mv.lo == 2

    def test_origin_dilation_invariance(self):
        for k in range(-20, 21):
            mv = a1_quotient(ORIGIN, Cube.interval(0, Fraction(2) ** k), Fraction(1, 2))
            assert mv.exact and mv.lo == 2

    def test_alpha_must_be_positive(self):
        with pytest.raises(PreconditionError):
            a1_quotient(Z, UNIT, Fraction(-1, 2))


def _bfs_partial(oracle, q0, theta, max_gen, covers=None):
    """The divergent partial from the pores of the reference BFS, each
    integrated by the Fraction reference with both end distances queried."""
    terms = (fraction_profile_integral(*profile, theta) for profile in bfs_profiles(oracle, q0, max_gen, covers))
    total, _, n = _sum_terms(terms)
    return _ScaledMean(Bracket(total, math.inf), max(n, 1))


def _divergent_cases():
    """(oracle, window) pairs for the cell walk: point sets with a point on a
    window end, with points outside the window and with several points in
    one cell at every depth tested, the lattice, and generated sets at
    levels 3-5 with and without reflection, on their envelope and on windows
    whose ends are no set points."""
    third = Fraction(1, 3)
    cases = [
        (FinitePoints((Fraction(0), Fraction(2, 7), Fraction(1))), UNIT),
        (FinitePoints((Fraction(-1, 5), Fraction(1, 7), Fraction(3, 5), Fraction(3, 2))), UNIT),
        (FinitePoints((third, third + Fraction(1, 10**15), third + Fraction(2, 10**15), Fraction(5, 6))),
         Cube.interval(Fraction(1, 9), Fraction(10, 9))),
        (Z, Cube.interval(third, Fraction(7, 3))),
        (Z, Cube.interval(0, 4)),
    ]
    for level, seq, reflect in (
        (3, ContractionSequence.half_harmonic(), False),
        (4, ContractionSequence.constant(Fraction(1, 2)), True),
        (5, ContractionSequence.constant(Fraction(2, 3)), False),
        (5, ContractionSequence.half_harmonic(), True),
    ):
        g = Generated(seq, level, reflect)
        lo, hi = g.envelope
        pts = g.points
        cases += [
            (g, Cube.interval(lo, hi)),
            (g, Cube.interval(pts[1] - Fraction(1, 1000), pts[6] + Fraction(1, 999))),
        ]
    return cases


class TestDivergentCellWalk:
    # On point sets the divergent partial lists its pores from the integer
    # cells of the points and integrates them in integers; the BFS with
    # Fraction integrals is the reference.  Totals must agree to the bit and
    # the term counts exactly: the float sum follows the pore order, and the
    # count stops at the first pore touching the set.
    CASES = _divergent_cases()
    THETAS = (Fraction(-1), Fraction(-3, 2), Fraction(-2), Fraction(-7, 3))

    @pytest.mark.parametrize("max_gen", [1, 12, 40])
    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_matches_the_bfs(self, case, max_gen):
        oracle, window = self.CASES[case]
        for theta in self.THETAS:
            actual = _divergent_partial(_Window.read(oracle, window), theta, max_gen)
            assert repr(actual) == repr(_bfs_partial(oracle, window, theta, max_gen))

    def test_cases_reach_every_outcome(self):
        # Finite totals that are exact, finite float totals summed over many
        # terms, and sums stopped at a pore that touches the set.
        outcomes = set()
        for oracle, window in self.CASES:
            for theta in self.THETAS:
                sm = _divergent_partial(_Window.read(oracle, window), theta, 40)
                outcomes.add("inf" if sm.norm.lo == math.inf else "exact" if isinstance(sm.norm.lo, Fraction)
                             else "float" if sm.n_terms > 100 else "short float")
        assert {"inf", "exact", "float"} <= outcomes

    def test_deep_irrational_exponents(self):
        # At depth 300 the profiles have denominators near 2^300, so the
        # cube roots of theta = -7/3 and -4/3 run on integers past float
        # precision.
        for theta in (Fraction(-7, 3), Fraction(-4, 3)):
            for oracle in (ORIGIN, FinitePoints((Fraction(1, 3), Fraction(3, 5)))):
                actual = _divergent_partial(_Window.read(oracle, UNIT), theta, 300)
                assert actual.n_terms > 290
                assert repr(actual) == repr(_bfs_partial(oracle, UNIT, theta, 300))

    def test_max_gen_must_be_positive(self):
        with pytest.raises(PreconditionError):
            _divergent_partial(_Window.read(ORIGIN, UNIT), Fraction(-3, 2), 0)


class TestDivergentRowsSkipTheBfs:
    # Divergent rows never reach the reference search over subcubes, which
    # halves cubes with oracles.children: every set lists its pores from the
    # cells of its pieces.

    @pytest.fixture
    def no_bfs(self, monkeypatch):
        def refuse(cube):
            raise AssertionError("BFS reached")

        monkeypatch.setattr(oracles, "children", refuse)

    @pytest.mark.parametrize("args", [
        ["--set", "point:0", "--alpha", "3/2", "--cubes", "dyadic:-10..10"],
        ["--set", "generated:half_harmonic:6", "--alpha", "1", "--cubes", "envelopes:0..6"],
        ["--set", "generated:constant:1/2:5:reflect", "--alpha", "7/3", "--cubes", "unit:[-1/3,2)"],
    ])
    def test_point_sets(self, no_bfs, capsys, args):
        assert cli.main(["ap-scan", *args, "--p", "2"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert rows and all(row.endswith(",III") for row in rows)

    def test_box_union_matches_the_bfs(self, no_bfs, monkeypatch):
        boxes = BoxUnion((((Fraction(0),), (Fraction(1, 4),)),))
        result = ap_product(boxes, UNIT, ApQuery(Fraction(3, 2), 2))
        actual = _divergent_partial(_Window.read(boxes, UNIT), Fraction(-3, 2), 40)
        monkeypatch.undo()
        covers = lambda lo, hi: box_scan_covers([(Fraction(0), Fraction(1, 4))], lo, hi)  # noqa: E731
        assert repr(actual) == repr(_bfs_partial(boxes, UNIT, Fraction(-3, 2), 40, covers))
        assert (result.case, result.path) == ("III", "divergent")


def _differential_cases():
    """(oracle, window) pairs: windows whose ends are set points, windows with
    clipped ends, and a window disjoint from the set (case II, one component
    clipped at both ends), plus one window the set covers."""
    hh = Generated(ContractionSequence.half_harmonic(), 5, True)
    half = Generated(ContractionSequence.constant(Fraction(1, 2)), 5, True)
    two_thirds = Generated(ContractionSequence.constant(Fraction(2, 3)), 4)
    points = FinitePoints(tuple(Fraction(k, 10) for k in (0, 1, 6, 7, 10)))
    boxes = BoxUnion((((Fraction(0),), (Fraction(1, 4),)), ((Fraction(1, 2),), (Fraction(5, 8),))))
    cases = [
        (Z, UNIT),
        (Z, Cube.interval(Fraction(1, 3), Fraction(7, 3))),
        (Z, Cube.interval(Fraction(1, 8), Fraction(3, 8))),
        (points, UNIT),
        (points, Cube.interval(Fraction(-1, 3), Fraction(4, 3))),
        (points, Cube.interval(Fraction(1, 8), Fraction(1, 4))),
        (boxes, UNIT),
        (boxes, Cube.interval(Fraction(-1, 3), Fraction(2, 3))),
        (boxes, Cube.interval(Fraction(1, 16), Fraction(1, 8))),
    ]
    for g in (hh, half, two_thirds):
        lo, hi = g.envelope
        cases += [
            (g, Cube.interval(lo, hi)),
            (g, Cube.interval(lo + Fraction(1, 7), hi - Fraction(2, 9))),
            (g, Cube.interval(g.points[1] + Fraction(1, 1000), g.points[1] + Fraction(1, 200))),
        ]
    return cases


DIFFERENTIAL_CASES = _differential_cases()
# 0, 1 and 2 are exact on every window: the gap walk sums count * integral
# per distinct length, where the oracle integrates every component.
THETAS = (Fraction(0), Fraction(1), Fraction(2), Fraction(1, 3), Fraction(-1, 3), Fraction(-1, 2))


def _random_gap_set(rng):
    """(oracle, spans): a union of one to five closed intervals on a grid of
    step 1/8 or 1/15 over [-1, 2], some of them points and some touching,
    nesting in or overlapping an earlier one; or one to eight points with
    mixed denominators, as a ``FinitePoints`` (spans of its points)."""
    if rng.random() < 0.4:
        pts = {Fraction(rng.randint(-d, 2 * d), d) for d in rng.choices((2, 3, 5, 7, 8, 12), k=rng.randint(1, 8))}
        return FinitePoints(tuple(pts)), [(x, x) for x in pts]
    step = rng.choice((Fraction(1, 8), Fraction(1, 15)))
    grid = [k * step for k in range(int(-1 / step), int(2 / step) + 1)]
    spans = []
    for _ in range(rng.randint(1, 5)):
        lo, hi = sorted(rng.sample(grid, 2))
        kind = rng.choice(("free", "free", "point", "touch", "nest", "overlap")) if spans else "free"
        if kind != "free":
            a, b = rng.choice(spans)
            lo, hi = {
                "point": (a, a),
                "touch": (b, b + hi - lo),
                "nest": (a + (b - a) / 4, b - (b - a) / 4),
                "overlap": ((a + b) / 2, b + hi - lo),
            }[kind]
        spans.append((lo, hi))
    return BoxUnion(tuple(((a,), (b,)) for a, b in spans)), spans


def _random_gap_window(rng):
    """A dyadic window with ends on the grid of 1/8, or an off-grid one."""
    if rng.random() < 0.5:
        lo = Fraction(rng.randint(-8, 12), 8)
        return Cube.interval(lo, lo + Fraction(1 << rng.randint(0, 4), 8))
    lo = Fraction(rng.randint(-30, 30), rng.choice((3, 7, 11)))
    return Cube.interval(lo, lo + Fraction(rng.randint(1, 60), rng.choice((5, 9, 13))))


def _gap_features(spans, window):
    """Which of the cases the random differential test must reach this set
    and window hit."""
    lo, hi = window.as_interval()
    out = set()
    if any(a <= lo and hi <= b for a, b in spans):
        out.add("inside one interval")
    if any(a < lo <= b for a, b in spans):
        out.add("past lo")
    if any(a < hi <= b for a, b in spans):
        out.add("past hi")
    if any(b == c for (_, b), (c, _) in zip(sorted(spans), sorted(spans)[1:])):
        out.add("touching")
    if len({a.denominator for a, b in spans if a == b and lo <= a < hi}) > 1:
        out.add("mixed denominators")
    if (8 * lo).denominator != 1 or (8 * hi).denominator != 1:
        out.add("off-grid window")
    return out


def _takes_closed_form(oracle, window):
    return isinstance(oracle, Generated) and oracle.envelope_level(window) is not None


class TestGapWalkMatchesPerComponent:
    # The gap walk queries distances only at the window ends and integrates
    # each distinct interior length once; the oracle queries every endpoint
    # and integrates every component.  Brackets must agree to the last bit.
    # On the envelope window of the unreflected 2/3 set the public functions
    # take the closed form (TestEnvelopeClosedForm), so there the gap walk
    # is called directly: it stays pinned to the oracle on that window too.

    def test_cases_cover_both_window_kinds(self):
        tags = [
            ap_product(o, w, ApQuery(Fraction(1, 3), 2)).case for o, w in DIFFERENTIAL_CASES
        ]
        assert tags.count("II") == 5 and tags.count("III") == len(tags) - 5
        assert sum(_takes_closed_form(o, w) for o, w in DIFFERENTIAL_CASES) == 1

    @pytest.mark.parametrize("oracle,window", DIFFERENTIAL_CASES)
    def test_mean_dist_power(self, oracle, window):
        for theta in THETAS:
            expected = per_component_mean(oracle, window, theta).to_mean_value(window.side, theta)
            if _takes_closed_form(oracle, window):
                read = _Window.read(oracle, window)
                (sm,) = _means(read, (theta,), 40, _Gaps.of(read))
                actual = sm.to_mean_value(window.side, theta)
            else:
                actual = mean_dist_power(oracle, window, theta)
            assert repr(actual) == repr(expected)

    @pytest.mark.parametrize("oracle,window", DIFFERENTIAL_CASES)
    def test_ap_product(self, oracle, window):
        meets_window = meets(oracle, *window.as_interval())
        for alpha in (Fraction(1, 3), Fraction(-1, 3), Fraction(1, 2)):
            for p in (Fraction(2), Fraction(3, 2)):
                sm1 = per_component_mean(oracle, window, -alpha)
                sm2 = per_component_mean(oracle, window, alpha / (p - 1))
                expected = ApResult(_combine_product(sm1, sm2, p), "III" if meets_window else "II", "gap_walk")
                if _takes_closed_form(oracle, window):
                    read = _Window.read(oracle, window)
                    walk = _means(read, (-alpha, alpha / (p - 1)), 40, _Gaps.of(read))
                    actual = ApResult(_combine_product(*walk, p), "III", "gap_walk")
                else:
                    actual = ap_product(oracle, window, ApQuery(alpha, p))
                assert repr(actual) == repr(expected)

    @pytest.mark.parametrize("oracle,window", DIFFERENTIAL_CASES)
    def test_a1_quotient(self, oracle, window):
        if not components(oracle, *window.as_interval()):
            with pytest.raises(PreconditionError):
                a1_quotient(oracle, window, Fraction(1, 3))
            return
        for alpha in (Fraction(1, 3), Fraction(1, 2)):
            peak = per_component_peak(oracle, window)
            expected = per_component_mean(oracle, window, -alpha).to_mean_value(peak / window.side, alpha)
            if _takes_closed_form(oracle, window):
                read = _Window.read(oracle, window)
                gaps = _Gaps.of(read)
                (sm,) = _means(read, (-alpha,), 40, gaps)
                actual = sm.to_mean_value(gaps.peak(), alpha)
            else:
                actual = a1_quotient(oracle, window, alpha)
            assert repr(actual) == repr(expected)

    def test_random_sets(self):
        # Unions of intervals and point sets with mixed denominators: the
        # integer walk over the piece runs against the Fraction walk over
        # ``components`` with every endpoint distance queried.
        rng = random.Random(18)
        seen = set()
        start = time.perf_counter()
        for _ in range(150):
            oracle, spans = _random_gap_set(rng)
            window = _random_gap_window(rng)
            lo, hi = window.as_interval()
            seen |= _gap_features(spans, window)
            gaps = _Gaps.of(_Window.read(oracle, window))
            lengths = [Fraction(*gaps.distinct[k]) * window.side for k in gaps.order]
            ends = [Fraction(h, den) * window.side for h, _, _, den in gaps.ends]
            lengths = ends[:1] + lengths + ends[1:]
            assert lengths == [c.length for c in components(oracle, lo, hi)], (spans, window)
            for theta in THETAS:
                expected = per_component_mean(oracle, window, theta).to_mean_value(window.side, theta)
                assert repr(mean_dist_power(oracle, window, theta)) == repr(expected), (spans, window, theta)
            if not components(oracle, lo, hi):
                with pytest.raises(PreconditionError):
                    a1_quotient(oracle, window, Fraction(1, 3))
            else:
                peak = per_component_peak(oracle, window)
                for alpha in (Fraction(1, 3), Fraction(1, 2)):
                    sm = per_component_mean(oracle, window, -alpha)
                    expected = sm.to_mean_value(peak / window.side, alpha)
                    assert repr(a1_quotient(oracle, window, alpha)) == repr(expected), (spans, window, alpha)
            meets_window = meets(oracle, lo, hi)
            if not meets_window and min(oracle.distance(lo), oracle.distance(hi)) >= 2 * window.side:
                continue  # a far cube, bracketed without means
            for alpha, p in ((Fraction(1, 3), Fraction(2)), (Fraction(-1, 3), Fraction(3, 2)), (Fraction(1, 2), Fraction(3, 2))):
                sm1 = per_component_mean(oracle, window, -alpha)
                sm2 = per_component_mean(oracle, window, alpha / (p - 1))
                expected = ApResult(_combine_product(sm1, sm2, p), "III" if meets_window else "II", "gap_walk")
                assert repr(ap_product(oracle, window, ApQuery(alpha, p))) == repr(expected), (spans, window, alpha, p)
        assert seen == {
            "inside one interval", "past lo", "past hi", "touching", "mixed denominators", "off-grid window",
        }
        assert time.perf_counter() - start < 5

    def test_exact_rational_case(self):
        sm = per_component_mean(ORIGIN, UNIT, Fraction(-1, 2))
        sm2 = per_component_mean(ORIGIN, UNIT, Fraction(1, 2))
        product = ap_product(ORIGIN, UNIT, ApQuery(Fraction(1, 2), 2)).product
        assert product == _combine_product(sm, sm2, Fraction(2))
        assert product.exact and product.lo == Fraction(4, 3)
        quotient = a1_quotient(ORIGIN, UNIT, Fraction(1, 2))
        assert quotient == sm.to_mean_value(per_component_peak(ORIGIN, UNIT) / UNIT.side, Fraction(1, 2))
        assert quotient.exact and quotient.lo == 2


def _check_cell(new, old, reference):
    """The closed form's result ``new`` against the gap walk's ``old`` and
    the 60-digit ``reference``: exact cells are equal; a bracket either
    became exact inside itself or stayed a float bracket that overlaps it
    and is no wider; every float bracket holds the reference."""
    if old.exact:
        assert new.exact and new.lo == old.lo
    elif new.exact:
        assert old.lo <= new.lo <= old.hi
    else:
        assert new.lo <= old.hi and old.lo <= new.hi
        assert new.hi - new.lo <= old.hi - old.lo
    if new.exact:
        assert isinstance(new.lo, Fraction)
        assert abs(to_decimal(new.lo) - reference) <= reference * decimal.Decimal("1e-50")
    else:
        assert decimal.Decimal(new.lo) <= reference <= decimal.Decimal(new.hi)


class TestEnvelopeClosedForm:
    # On Q_m the means, the A_p products and the A_1 quotient come from the
    # moments E[X_m^theta]; the gap walk over the same window is the
    # reference path, and a 60-digit decimal evaluation of the same closed
    # form must lie in every float bracket.
    SEQS = (
        ContractionSequence.half_harmonic(),
        ContractionSequence.constant(Fraction(1, 2)),
        ContractionSequence.constant(Fraction(1, 4)),
        ContractionSequence.constant(1),
    )
    AP = tuple(
        (alpha, p)
        for alpha in (Fraction(1, 3), Fraction(-1, 3), Fraction(1, 2))
        for p in (Fraction(2), Fraction(3), Fraction(3, 2))
    )
    A1 = (Fraction(1, 3), Fraction(1, 2))

    def _check_window(self, g, m, thetas, ap, a1):
        window = envelope_cube(g.seq, m)
        gaps = _Gaps.of(_Window.read(g, window))
        walk = {}

        def walk_mean(theta):
            if theta not in walk:
                walk[theta] = gaps.mean(theta)
            return walk[theta]

        with decimal.localcontext() as ctx:
            ctx.prec = 60
            for theta in thetas:
                unit_power, norm = decimal_envelope_mean(g.seq, m, theta)
                old = walk_mean(theta).to_mean_value(window.side, theta)
                _check_cell(mean_dist_power(g, window, theta), old, unit_power * norm)
            for alpha, p in ap:
                theta1, theta2 = -alpha, alpha / (p - 1)
                res = ap_product(g, window, ApQuery(alpha, p))
                assert (res.case, res.path) == ("III", "closed_form")
                old = _combine_product(walk_mean(theta1), walk_mean(theta2), p)
                norm1 = decimal_envelope_mean(g.seq, m, theta1)[1]
                norm2 = decimal_envelope_mean(g.seq, m, theta2)[1]
                _check_cell(res.product, old, norm1 * norm2 ** to_decimal(p - 1))
            for alpha in a1:
                old = walk_mean(-alpha).to_mean_value(gaps.peak(), alpha)
                _check_cell(a1_quotient(g, window, alpha), old, decimal_envelope_mean(g.seq, m, -alpha)[1])

    @pytest.mark.parametrize("reflect", [False, True])
    @pytest.mark.parametrize("seq", SEQS, ids=["half_harmonic", "c=1/2", "c=1/4", "c=1"])
    def test_level_eight(self, seq, reflect):
        g = Generated(seq, 8, reflect)
        start = time.perf_counter()
        for m in range(9):
            self._check_window(g, m, THETAS, self.AP, self.A1)
        assert time.perf_counter() - start < 5

    def test_level_ten(self):
        g = Generated(ContractionSequence.half_harmonic(), 10)
        alpha = Fraction(1, 3)
        self._check_window(g, 10, (), ((alpha, Fraction(2)),), (alpha,))

    def test_one_moment_pass_per_exponent(self):
        # One pass per exponent serves every envelope, drawn as far as the
        # largest level asked for, with the bits of a single-level call.
        g = Generated(ContractionSequence.half_harmonic(), 200)
        query = ApQuery(Fraction(1, 3), 2)
        for m in range(201):
            assert ap_product(g, envelope_cube(g.seq, m), query).path == "closed_form"
            a1_quotient(g, envelope_cube(g.seq, m), Fraction(1, 3))
        assert sorted(g.moments) == [Fraction(-1, 3), Fraction(1, 3)]
        for theta, moments in g.moments.items():
            drawn = moments.upto(0)
            assert len(drawn) == 201
            for m in (0, 1, 7, 200):
                assert repr(drawn[m]) == repr(moment_prefixes(g.seq, m, theta)[-1])
        assert "numerators" not in g.__dict__

    def test_work_follows_the_window_not_the_level(self):
        g = Generated(ContractionSequence.half_harmonic(), 10**6)
        res = ap_product(g, envelope_cube(g.seq, 3), ApQuery(Fraction(1, 3), 2))
        assert res.path == "closed_form"
        assert all(len(moments.upto(0)) == 4 for moments in g.moments.values())
        assert g.envelope_level(Cube.interval(0, 1)) == 0
        assert g.envelope_level(Cube.interval(0, Fraction(5, 2))) == 1
        assert g.envelope_level(Cube.interval(0, 2)) is None
        assert g.envelope_level(Cube.interval(Fraction(1, 2), Fraction(5, 2))) is None
        assert g.envelope_level(Cube.interval(0, Fraction(1, 2))) is None
        assert Generated(g.seq, 1).envelope_level(envelope_cube(g.seq, 2)) is None

    def test_other_windows_and_exponents_keep_the_gap_walk(self):
        g = Generated(ContractionSequence.half_harmonic(), 6)
        lo, hi = g.envelope
        assert ap_product(g, Cube.interval(lo, hi - Fraction(1, 7)), ApQuery(Fraction(1, 3), 2)).path == "gap_walk"
        assert ap_product(g, Cube.interval(lo, 2 * hi), ApQuery(Fraction(1, 3), 2)).path == "gap_walk"
        # theta <= -1 in either factor sends the whole product down the
        # divergent route, so both factors keep the window side as unit.
        q0 = envelope_cube(g.seq, 3)
        assert ap_product(g, q0, ApQuery(Fraction(3, 2), 2), max_gen=8).path == "divergent"
        assert ap_product(g, q0, ApQuery(Fraction(-3, 2), 2), max_gen=8).path == "divergent"
        assert ap_product(g, Cube.interval(hi + 10, hi + 11), ApQuery(Fraction(1, 3), 2)).path == "far_cube"
        assert g.moments == {}
