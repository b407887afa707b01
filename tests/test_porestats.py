import math
from dataclasses import dataclass
from fractions import Fraction

import pytest

from oracles import (
    closed_form_moment,
    fraction_binomial_cdf_row,
    fraction_binomial_pmf,
    fraction_length_law,
    pascal_binomial_cdf,
)
from poremetrics import porestats
from poremetrics.errors import PreconditionError
from poremetrics.pores import FractionQuery, Side, tilde_fraction_length
from poremetrics.porestats import (
    EXPECTATION_PRODUCT_BOUND,
    BinomialModel,
    binomial_cdf_row,
    binomial_check,
    binomial_pmf,
    divergence_scan,
    kakeya_product,
    length_law,
    markov_bounds,
    markov_bounds_from_moments,
    moment,
    moment_closed_form,
    moment_prefixes,
    normal_cdf,
    normal_gap,
    tilde_quantile_largest,
    tilde_quantile_pair,
    tilde_quantile_smallest,
)
from poremetrics.setmodels import ContractionSequence, Generated

HALF = ContractionSequence.constant(Fraction(1, 2))
HH = ContractionSequence.half_harmonic()
QUARTER = ContractionSequence.constant(Fraction(1, 4))
TWO_SEVENTHS = ContractionSequence.constant(Fraction(2, 7))
TWO_THIRDS = ContractionSequence.constant(Fraction(2, 3))
ONE = ContractionSequence.constant(1)


@dataclass(frozen=True)
class _Stages:
    """A contraction sequence given by its first factors."""

    factors: tuple

    def value(self, n):
        return self.factors[n - 1]


class TestLengthLaw:
    def test_level_zero_point_mass(self):
        assert length_law(HALF, 0).masses == {Fraction(1): Fraction(1)}

    def test_level_one(self):
        assert length_law(HALF, 1).masses == {
            Fraction(1): Fraction(4, 5),
            Fraction(1, 2): Fraction(1, 5),
        }

    def test_half_harmonic_level_one(self):
        assert length_law(HH, 1).masses == {
            Fraction(1): Fraction(4, 5),
            Fraction(1, 2): Fraction(1, 5),
        }

    @pytest.mark.parametrize("seq", [HALF, HH, QUARTER])
    @pytest.mark.parametrize("level", [1, 3, 7, 12])
    def test_masses_sum_to_one(self, seq, level):
        law = length_law(seq, level)
        assert sum(law.masses.values()) == 1

    @pytest.mark.parametrize("seq", [HALF, HH, QUARTER, TWO_SEVENTHS])
    def test_matches_fraction_recursion(self, seq):
        for level in range(0, 10):
            expected = fraction_length_law(seq.value(i) for i in range(1, level + 1))
            # Same atoms, masses and insertion order: moment() sums in that order.
            assert list(length_law(seq, level).masses.items()) == list(expected.items())

    @pytest.mark.parametrize("seq", [HALF, HH])
    @pytest.mark.parametrize("level", range(0, 9))
    def test_matches_component_histogram(self, seq, level):
        # The law must be exactly the normalized length histogram of the
        # materialized components.
        g = Generated(seq, level)
        lo, hi = g.envelope
        comps = g.components(lo, hi)
        hist: dict = {}
        for c in comps:
            hist[c.length] = hist.get(c.length, Fraction(0)) + c.length / (hi - lo)
        assert length_law(seq, level).masses == hist


class TestMoments:
    def test_first_moment_level_one(self):
        assert moment(length_law(HALF, 1), 1) == Fraction(9, 10)

    def test_inverse_moment_level_one(self):
        assert moment(length_law(HALF, 1), -1) == Fraction(6, 5)

    def test_zeroth_moment_is_one(self):
        for law in (length_law(HALF, 7), length_law(HH, 5)):
            assert moment(law, 0) == 1

    @pytest.mark.parametrize("theta", [-1, Fraction(-1, 2), 0, Fraction(1, 2), 1])
    def test_constant_half_matches_closed_form_to_level_50(self, theta):
        for level in (1, 5, 12, 25, 50):
            law_val = moment(length_law(HALF, level), theta)
            closed = moment_closed_form(HALF, level, theta)
            if isinstance(law_val, Fraction) and isinstance(closed, Fraction):
                assert law_val == closed
            else:
                assert math.isclose(float(law_val), float(closed), rel_tol=1e-12)

    @pytest.mark.parametrize("theta", [-1, Fraction(-1, 2), 0, Fraction(1, 2), 1])
    def test_half_harmonic_matches_closed_form_to_level_12(self, theta):
        for level in (1, 4, 8, 12):
            law_val = moment(length_law(HH, level), theta)
            closed = moment_closed_form(HH, level, theta)
            if isinstance(law_val, Fraction) and isinstance(closed, Fraction):
                assert law_val == closed
            else:
                assert math.isclose(float(law_val), float(closed), rel_tol=1e-12)

    def test_square_contraction_keeps_half_powers_exact(self):
        val = moment(length_law(QUARTER, 6), Fraction(1, 2))
        assert isinstance(val, Fraction)
        assert val == moment_closed_form(QUARTER, 6, Fraction(1, 2))


class TestMomentPrefixes:
    @pytest.mark.parametrize("seq", [HH, HALF, QUARTER, TWO_THIRDS, ONE])
    @pytest.mark.parametrize(
        "theta", [1, -1, 0, Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3)]
    )
    def test_matches_per_level_products(self, seq, theta):
        # Same type and the same bits at every level, on the exact path, the
        # float path and across the switch between them.
        prefixes = moment_prefixes(seq, 60, theta)
        assert len(prefixes) == 61
        for level, value in enumerate(prefixes):
            expected = closed_form_moment(seq, level, theta)
            assert type(value) is type(expected)
            assert repr(value) == repr(expected)
        assert repr(moment_closed_form(seq, 60, theta)) == repr(prefixes[-1])

    def test_switch_to_float_after_exact_stages(self):
        # c^(3/2) is rational for c = 1/4 and 9/16 but not for 1/2, so the
        # product turns into a float at stage 4 and then mixes both kinds.
        q, h, n = Fraction(1, 4), Fraction(1, 2), Fraction(9, 16)
        seq = _Stages((q, n, q, h, n, h, q, n))
        theta = Fraction(1, 2)
        prefixes = moment_prefixes(seq, 8, theta)
        assert [type(v) for v in prefixes] == [Fraction] * 4 + [float] * 5
        for level, value in enumerate(prefixes):
            assert repr(value) == repr(closed_form_moment(seq, level, theta))

    def test_negative_level_rejected(self):
        for call in (
            lambda: moment_prefixes(HH, -1, 1),
            lambda: moment_closed_form(HH, -1, 1),
            lambda: moment_closed_form(HALF, -3, -1),
            lambda: kakeya_product(HH, -2),
        ):
            with pytest.raises(PreconditionError, match="level must be nonnegative"):
                call()


class TestKakeyaProduct:
    def test_half_harmonic_level_one(self):
        assert kakeya_product(HH, 1) == Fraction(27, 25)

    def test_level_zero(self):
        assert kakeya_product(HH, 0) == 1
        assert kakeya_product(HALF, 0) == 1

    @pytest.mark.parametrize("seq", [HH, HALF, QUARTER])
    def test_matches_single_product_form(self, seq):
        for level in (1, 2, 10, 33, 50):
            expected = Fraction(1)
            for i in range(1, level + 1):
                c = seq.value(i)
                expected *= 3 * (2 + c * c) / (2 + c) ** 2
            assert kakeya_product(seq, level) == expected

    def test_half_harmonic_bounded_to_level_500(self):
        prev = Fraction(0)
        for level in range(0, 501):
            val = kakeya_product(HH, level)
            assert val >= prev
            prev = val
        assert float(prev) <= EXPECTATION_PRODUCT_BOUND

    def test_constant_half_grows_geometrically(self):
        for level in (1, 5, 12):
            assert kakeya_product(HALF, level) == Fraction(27, 25) ** level


class TestMarkovBounds:
    def test_level_one_ratio_bound(self):
        mb = markov_bounds(length_law(HH, 1), Fraction(1, 10), 11, Fraction(9, 100))
        assert mb.ratio_bound == 132

    def test_point_mass_sandwich(self):
        law = length_law(HALF, 0)
        mb = markov_bounds(law, Fraction(1, 10), 11, Fraction(9, 100))
        # X is the constant 1, so both quantiles equal E[X] = 1.
        assert mb.upper_for_tilde_largest >= 1 >= mb.lower_for_tilde_smallest

    def test_parameter_preconditions(self):
        law = length_law(HH, 1)
        with pytest.raises(PreconditionError):
            markov_bounds(law, Fraction(1, 10), 10, Fraction(9, 100))  # k == 1/s
        with pytest.raises(PreconditionError):
            markov_bounds(law, Fraction(1, 10), 11, Fraction(1, 5))  # k' >= s

    def test_constant_half_bound_grows_geometrically(self):
        # With a constant contraction the expectation product is (27/25)^n,
        # so the ratio bound cannot stay finite in n; the bounds themselves
        # remain valid at every fixed level.
        s, k, kp = Fraction(1, 10), Fraction(11), Fraction(9, 100)
        prev = None
        for level in (4, 8, 12):
            mb = markov_bounds(length_law(HALF, level), s, k, kp)
            assert mb.ratio_bound == (k / kp) * Fraction(27, 25) ** level
            if prev is not None:
                assert mb.ratio_bound > prev
            prev = mb.ratio_bound

    @pytest.mark.parametrize("seq", [HH, HALF])
    @pytest.mark.parametrize("level", [1, 4, 8])
    def test_bounds_dominate_exact_component_quantiles(self, seq, level):
        s = Fraction(1, 10)
        g = Generated(seq, level)
        lo, hi = g.envelope
        comps = g.components(lo, hi)
        tl = tilde_fraction_length(comps, (lo, hi), FractionQuery(s, Side.LARGEST)).value
        ts = tilde_fraction_length(comps, (lo, hi), FractionQuery(s, Side.SMALLEST)).value
        mb = markov_bounds(length_law(seq, level), s, 11, Fraction(9, 100))
        assert tl <= mb.upper_for_tilde_largest
        assert ts >= mb.lower_for_tilde_smallest
        assert tl / ts <= mb.ratio_bound


class TestBinomialReduction:
    @pytest.mark.parametrize("level", range(0, 13))
    def test_exact_binomial_masses(self, level):
        ok, dev = binomial_check(length_law(HALF, level))
        assert ok and dev == 0

    def test_rejects_other_sequences(self):
        with pytest.raises(PreconditionError):
            binomial_check(length_law(HH, 3))

    @pytest.mark.parametrize("q", [Fraction(1, 5), Fraction(1, 3), Fraction(2, 7)])
    def test_integer_rows_match_fraction_formula(self, q):
        for n in range(61):
            assert binomial_cdf_row(n, q) == fraction_binomial_cdf_row(n, q)
            for k in range(n + 1):
                assert binomial_pmf(n, k, q) == fraction_binomial_pmf(n, k, q)

    @pytest.mark.parametrize("n", [1, 5, 12, 40])
    def test_cdf_matches_pascal_oracle(self, n):
        row = binomial_cdf_row(n, Fraction(1, 5))
        for k in range(n + 1):
            assert row[k] == pascal_binomial_cdf(n, k, Fraction(1, 5))


class TestNormalGap:
    def test_phi_endpoints(self):
        assert math.isclose(normal_cdf(0.0), 0.5, rel_tol=1e-15)
        assert normal_cdf(-10) < 1e-20

    def test_level_one_value(self):
        # sup over the two jump points of Bin(1, 1/5) against the normal fit
        gap = normal_gap(BinomialModel(1))
        assert math.isclose(gap, 0.4914624612740131, abs_tol=1e-12)

    def test_matches_independent_evaluation(self):
        for n in (3, 17, 60):
            model = BinomialModel(n)
            mu = n / 5
            sd = math.sqrt(n * 0.2 * 0.8)
            best = 0.0
            prev = 0.0
            for k in range(n + 1):
                cdf = float(pascal_binomial_cdf(n, k, Fraction(1, 5)))
                phi = 0.5 * math.erfc(-((k - mu) / sd) / math.sqrt(2))
                best = max(best, abs(cdf - phi), abs(prev - phi))
                prev = cdf
            assert math.isclose(normal_gap(model), best, rel_tol=1e-13)

    def test_root_n_decay(self):
        g10, g40, g160 = (normal_gap(BinomialModel(n)) for n in (10, 40, 160))
        assert g40 / g10 <= 0.7
        assert g160 / g40 <= 0.7
        fitted = max(normal_gap(BinomialModel(n)) * math.sqrt(n) for n in range(1, 201))
        assert fitted < 0.6


class TestDivergenceScan:
    def test_level_one_row(self):
        # Exact CDF: P(Y<=0) = 4/5 >= 4t and P(Y>=1) = 1/5 >= t, so the
        # quantile exponents are 0 and 1 and the ratio is 2.
        (row,) = divergence_scan(Fraction(1, 10), [1])
        assert (row.k_min, row.k_max, row.tilde_ratio) == (0, 1, 2)

    def test_level_forty_pinned(self):
        (row,) = divergence_scan(Fraction(1, 10), [40])
        assert (row.k_min, row.k_max) == (7, 11)
        assert row.tilde_ratio == 16

    def test_growth_trend(self):
        rows = divergence_scan(Fraction(1, 10), [10, 40, 80, 120, 160, 200])
        ratios = [r.tilde_ratio for r in rows]
        assert ratios == [4, 16, 64, 128, 256, 512]

    def test_threshold_domain(self):
        with pytest.raises(PreconditionError):
            divergence_scan(Fraction(1, 8), [10])
        with pytest.raises(PreconditionError):
            divergence_scan(Fraction(1, 4), [10])

    def test_normal_prediction_tracks_exact_scan(self):
        # The asymptotic prediction (defaults xi1 = 2t, xi2 = 6t) must land
        # within a couple of exponents of the exact quantile gap at large n.
        # The default xi2 = 6t interlaces below 1/2 only for t < 1/12.
        from poremetrics.porestats import predicted_exponent_gap

        # The interlaced quantile levels make the prediction an eventual
        # lower bound for the exact gap, growing like sqrt(n).
        t = Fraction(1, 20)
        prev = 0.0
        for n in (80, 160, 200):
            (row,) = divergence_scan(t, [n])
            exact_gap = row.k_max - row.k_min
            predicted = predicted_exponent_gap(n, t)
            assert predicted <= exact_gap
            assert predicted > prev
            prev = predicted
        with pytest.raises(PreconditionError):
            predicted_exponent_gap(40, t, xi1=Fraction(1, 2))
        with pytest.raises(PreconditionError):
            predicted_exponent_gap(40, Fraction(1, 10))  # default xi2 = 3/5 > 1/2


class TestComponentQuantiles:
    @pytest.mark.parametrize("seq", [HH, HALF])
    @pytest.mark.parametrize("level", [1, 4, 8])
    def test_exact_engine_matches_component_enumeration(self, seq, level):
        s = Fraction(1, 10)
        g = Generated(seq, level)
        lo, hi = g.envelope
        comps = g.components(lo, hi)
        tl = tilde_fraction_length(comps, (lo, hi), FractionQuery(s, Side.LARGEST)).value
        ts = tilde_fraction_length(comps, (lo, hi), FractionQuery(s, Side.SMALLEST)).value
        assert tilde_quantile_largest(seq, level, s) == tl
        assert tilde_quantile_smallest(seq, level, s) == ts

    def test_half_arrays_match_exact_law(self):
        # Split-half arrays must be the very floats of the exact law, sorted.
        for seq in (HH, HALF, QUARTER, TWO_SEVENTHS):
            for level in (0, 1, 5, 9):
                xs, ws = porestats._half_arrays(seq, range(1, level + 1))
                law = length_law(seq, level)
                atoms = law.support()
                assert xs.tolist() == [float(x) for x in atoms]
                assert ws.tolist() == [float(law.masses[x]) for x in atoms]

    def test_split_half_engine_matches_exact(self, monkeypatch):
        s = Fraction(1, 10)
        exact = {lvl: tilde_quantile_pair(HH, lvl, s) for lvl in (8, 10, 12)}
        monkeypatch.setattr(porestats, "EXACT_QUANTILE_LEVEL_CAP", 0)
        for lvl, (el, es) in exact.items():
            al, asml = tilde_quantile_pair(HH, lvl, s)
            assert math.isclose(float(al), float(el), rel_tol=1e-10)
            assert math.isclose(float(asml), float(es), rel_tol=1e-10)

    def test_markov_bounds_hold_to_level_30(self):
        s = Fraction(1, 10)
        for level in range(0, 31):
            L, S = tilde_quantile_pair(HH, level, s)
            mb = markov_bounds_from_moments(
                moment_closed_form(HH, level, 1),
                moment_closed_form(HH, level, -1),
                s,
                11,
                Fraction(9, 100),
            )
            assert float(L) <= float(mb.upper_for_tilde_largest) * (1 + 1e-9)
            assert float(S) >= float(mb.lower_for_tilde_smallest) * (1 - 1e-9)
            assert float(L) / float(S) <= float(mb.ratio_bound) * (1 + 1e-9)
