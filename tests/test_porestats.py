import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    BinomialModel,
    closed_form_moment,
    components,
    fraction_binomial_cdf_row,
    fraction_binomial_check,
    fraction_binomial_pmf,
    fraction_divergence_row,
    fraction_law_quantiles,
    fraction_length_law,
    markov_bounds_from_moments,
    moment,
    moment_number,
    moment_prefixes,
    normal_cdf,
    normal_gap,
    pascal_binomial_cdf,
    product_tails,
    stage_value,
    tilde_fraction_length,
)
from poremetrics import porestats
from poremetrics.errors import PreconditionError
from poremetrics.pores import FractionQuery, Side
from poremetrics.porestats import (
    EXPECTATION_PRODUCT_BOUND,
    LengthDistribution,
    binomial_check,
    binomial_numerators,
    divergence_row,
    expectation_products,
    length_law,
    tilde_quantiles,
)
from poremetrics.setmodels import ContractionSequence, Generated

HALF = ContractionSequence.constant(Fraction(1, 2))
HH = ContractionSequence.half_harmonic()
QUARTER = ContractionSequence.constant(Fraction(1, 4))
TWO_SEVENTHS = ContractionSequence.constant(Fraction(2, 7))
TWO_THIRDS = ContractionSequence.constant(Fraction(2, 3))
ONE = ContractionSequence.constant(1)


def seq_id(seq):
    """A test ID naming the rule and c: ``half_harmonic``, ``constant-1/2``."""
    return seq.rule if seq.c is None else f"{seq.rule}-{seq.c}"


def divergence_scan(t, levels):
    """The divergence rows of the constant-1/2 law at ``levels``, each from
    its own binomial row."""
    return [divergence_row(Fraction(t), binomial_numerators(n, Fraction(1, 5))) for n in levels]


def expectation_product(seq, level):
    """E[X] E[X^-1] at ``level`` as a Fraction, from the two moment prefixes."""
    ex = moment_prefixes(seq, level, 1)[level]
    ex_inv = moment_prefixes(seq, level, -1)[level]
    return moment_number(ex) * moment_number(ex_inv)


@dataclass(frozen=True)
class _Stages:
    """A contraction sequence given by its first factors."""

    factors: tuple

    def stages(self):
        return ((c.numerator, c.denominator) for c in self.factors)


class TestLengthLaw:
    def test_level_zero_point_mass(self):
        assert length_law(HALF, 0).masses == {Fraction(1): Fraction(1)}

    def test_level_one(self):
        assert length_law(HALF, 1).masses == {
            Fraction(1): Fraction(4, 5),
            Fraction(1, 2): Fraction(1, 5),
        }

    def test_weights_must_sum_to_den_w(self):
        with pytest.raises(PreconditionError, match="sum to one"):
            LengthDistribution({2: 1, 1: 1}, 2, 3, 1)
        assert LengthDistribution({2: 2, 1: 1}, 2, 3, 1).masses == {1: Fraction(2, 3), Fraction(1, 2): Fraction(1, 3)}

    @pytest.mark.parametrize("key", [0, -1])
    def test_keys_must_be_positive(self, key):
        with pytest.raises(PreconditionError, match="positive"):
            LengthDistribution({2: 2, key: 1}, 2, 3, 1)

    def test_masses_must_be_nonnegative(self):
        # The masses sum to den_w, but one of them is negative.
        with pytest.raises(PreconditionError, match="nonnegative"):
            LengthDistribution({2: 4, 1: -1}, 2, 3, 1)

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
            expected = fraction_length_law(stage_value(seq, i) for i in range(1, level + 1))
            # Same atoms, masses and insertion order: moment() sums in that order.
            assert list(length_law(seq, level).masses.items()) == list(expected.items())

    @pytest.mark.parametrize("seq", [HALF, HH])
    @pytest.mark.parametrize("level", range(0, 9))
    def test_matches_component_histogram(self, seq, level):
        # The law must be exactly the normalized length histogram of the
        # materialized components.
        g = Generated(seq, level)
        lo, hi = g.envelope
        comps = components(g, lo, hi)
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
            closed = moment_number(moment_prefixes(HALF, level, theta)[level])
            if isinstance(law_val, Fraction) and isinstance(closed, Fraction):
                assert law_val == closed
            else:
                assert math.isclose(float(law_val), float(closed), rel_tol=1e-12)

    @pytest.mark.parametrize("theta", [-1, Fraction(-1, 2), 0, Fraction(1, 2), 1])
    def test_half_harmonic_matches_closed_form_to_level_12(self, theta):
        for level in (1, 4, 8, 12):
            law_val = moment(length_law(HH, level), theta)
            closed = moment_number(moment_prefixes(HH, level, theta)[level])
            if isinstance(law_val, Fraction) and isinstance(closed, Fraction):
                assert law_val == closed
            else:
                assert math.isclose(float(law_val), float(closed), rel_tol=1e-12)

    def test_square_contraction_keeps_half_powers_exact(self):
        val = moment(length_law(QUARTER, 6), Fraction(1, 2))
        assert isinstance(val, Fraction)
        assert val == moment_number(moment_prefixes(QUARTER, 6, Fraction(1, 2))[6])


class TestMomentPrefixes:
    @pytest.mark.parametrize("seq", [HH, HALF, QUARTER, TWO_THIRDS, ONE])
    @pytest.mark.parametrize(
        "theta", [1, -1, 0, Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3)]
    )
    def test_matches_per_level_products(self, seq, theta):
        # Same type and the same bits at every level, on the exact path, the
        # float path and across the switch between them.
        prefixes = list(map(moment_number, moment_prefixes(seq, 60, theta)))
        assert len(prefixes) == 61
        for level, value in enumerate(prefixes):
            expected = closed_form_moment(seq, level, theta)
            assert type(value) is type(expected)
            assert repr(value) == repr(expected)

    def test_switch_to_float_after_exact_stages(self):
        # c^(3/2) is rational for c = 1/4 and 9/16 but not for 1/2, so the
        # product turns into a float at stage 4 and then mixes both kinds.
        q, h, n = Fraction(1, 4), Fraction(1, 2), Fraction(9, 16)
        seq = _Stages((q, n, q, h, n, h, q, n))
        theta = Fraction(1, 2)
        prefixes = list(map(moment_number, moment_prefixes(seq, 8, theta)))
        assert [type(v) for v in prefixes] == [Fraction] * 4 + [float] * 5
        for level, value in enumerate(prefixes):
            assert repr(value) == repr(closed_form_moment(seq, level, theta))

    def test_negative_level_rejected(self):
        for seq, level, theta in ((HH, -1, 1), (HALF, -3, -1), (HH, -2, -1)):
            with pytest.raises(PreconditionError, match="level must be nonnegative"):
                moment_prefixes(seq, level, theta)


def _stream_mismatches(seq, theta, top=200):
    """The levels 0..top at which ``moment_prefixes`` differs from the
    Fraction reference: an exact entry must be the reference's numerator and
    denominator (so equal to it, coprime, with d > 0), a float must have the
    reference's repr."""
    bad = []
    for level, entry in enumerate(moment_prefixes(seq, top, theta)):
        ref = closed_form_moment(seq, level, theta)
        if isinstance(ref, Fraction):
            ok = type(entry) is tuple and entry == (ref.numerator, ref.denominator)
        else:
            ok = type(entry) is float and repr(entry) == repr(ref)
        if not ok:
            bad.append(level)
    return bad


class TestIntegerMomentStream:
    # c = 1/8 keeps every power exact at theta = 1/3, -1/3 and 2/3, c = 1/4
    # at theta = 1/2 and -1/2, and theta = 1 and -1 keep every stage exact.
    @pytest.mark.parametrize(
        "seq", [HH, ONE, HALF, QUARTER, TWO_THIRDS, ContractionSequence.constant(Fraction(1, 8))]
    )
    @pytest.mark.parametrize(
        "theta",
        [1, -1, Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(-1, 3), Fraction(2, 3)],
    )
    def test_matches_fraction_reference_to_level_200(self, seq, theta):
        assert _stream_mismatches(seq, theta) == []

    @pytest.mark.parametrize("skipped", ["numerator", "denominator"])
    def test_a_skipped_cross_reduction_is_caught(self, monkeypatch, skipped):
        # The stage product of the stream with one of its two cross-reductions
        # left out: its pairs keep their values but not lowest terms.  A
        # constant c repeats one coprime factor, so only the half-harmonic
        # stages ever cancel across the pair.
        def times(n, d, f_num, f_den):
            g = math.gcd(f_num, f_den)
            f_num, f_den = f_num // g, f_den // g
            if skipped != "numerator":
                g = math.gcd(n, f_den)
                n, f_den = n // g, f_den // g
            if skipped != "denominator":
                g = math.gcd(d, f_num)
                d, f_num = d // g, f_num // g
            return n * f_num, d * f_den

        monkeypatch.setattr(porestats, "_times", times)
        assert _stream_mismatches(HH, 1, 20) != []


class TestKakeyaProduct:
    # The product column of prob-stats: E[X] E[X^-1] from the moment prefixes.

    def test_half_harmonic_level_one(self):
        assert expectation_product(HH, 1) == Fraction(27, 25)

    def test_level_zero(self):
        assert expectation_product(HH, 0) == 1
        assert expectation_product(HALF, 0) == 1

    @pytest.mark.parametrize("seq", [HH, HALF, QUARTER])
    def test_matches_single_product_form(self, seq):
        for level in (1, 2, 10, 33, 50):
            expected = Fraction(1)
            for i in range(1, level + 1):
                c = stage_value(seq, i)
                expected *= 3 * (2 + c * c) / (2 + c) ** 2
            assert expectation_product(seq, level) == expected

    @pytest.mark.parametrize("seq", [HH, HALF, QUARTER, TWO_THIRDS, ONE])
    def test_expectation_products_are_the_moment_products(self, seq):
        # prob-stats forms the column from the two stage factors, not from
        # the moment pairs: the same coprime pairs at every level.
        products = list(islice(expectation_products(seq), 201))
        moments = zip(moment_prefixes(seq, 200, 1), moment_prefixes(seq, 200, -1))
        for level, (ex, ex_inv) in enumerate(moments):
            expected = Fraction(*ex) * Fraction(*ex_inv)
            assert products[level] == (expected.numerator, expected.denominator)

    def test_half_harmonic_bounded_to_level_500(self):
        prev = Fraction(0)
        for level in range(0, 501):
            val = expectation_product(HH, level)
            assert val >= prev
            prev = val
        assert float(prev) <= EXPECTATION_PRODUCT_BOUND

    def test_constant_half_grows_geometrically(self):
        for level in (1, 5, 12):
            product = expectation_product(HALF, level)
            assert product == Fraction(27, 25) ** level


class TestMarkovBounds:
    def test_level_one_ratio_bound(self):
        law = length_law(HH, 1)
        mb = markov_bounds_from_moments(moment(law, 1), moment(law, -1), Fraction(1, 10), 11, Fraction(9, 100))
        assert mb.ratio_bound == 132

    def test_point_mass_sandwich(self):
        law = length_law(HALF, 0)
        mb = markov_bounds_from_moments(moment(law, 1), moment(law, -1), Fraction(1, 10), 11, Fraction(9, 100))
        # X is the constant 1, so both quantiles equal E[X] = 1.
        assert mb.upper_for_tilde_largest >= 1 >= mb.lower_for_tilde_smallest

    def test_parameter_preconditions(self):
        law = length_law(HH, 1)
        ex, ex_inv = moment(law, 1), moment(law, -1)
        with pytest.raises(PreconditionError):
            markov_bounds_from_moments(ex, ex_inv, Fraction(1, 10), 10, Fraction(9, 100))  # k == 1/s
        with pytest.raises(PreconditionError):
            markov_bounds_from_moments(ex, ex_inv, Fraction(1, 10), 11, Fraction(1, 5))  # k' >= s

    def test_constant_half_bound_grows_geometrically(self):
        # With a constant contraction the expectation product is (27/25)^n,
        # so the ratio bound cannot stay finite in n; the bounds themselves
        # remain valid at every fixed level.
        s, k, kp = Fraction(1, 10), Fraction(11), Fraction(9, 100)
        prev = None
        for level in (4, 8, 12):
            law = length_law(HALF, level)
            mb = markov_bounds_from_moments(moment(law, 1), moment(law, -1), s, k, kp)
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
        comps = components(g, lo, hi)
        tl = tilde_fraction_length(comps, (lo, hi), FractionQuery(s, Side.LARGEST)).value
        ts = tilde_fraction_length(comps, (lo, hi), FractionQuery(s, Side.SMALLEST)).value
        law = length_law(seq, level)
        mb = markov_bounds_from_moments(moment(law, 1), moment(law, -1), s, 11, Fraction(9, 100))
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
            nums, den = binomial_numerators(n, q)
            assert den == q.denominator**n
            assert [Fraction(x, den) for x in nums] == [fraction_binomial_pmf(n, k, q) for k in range(n + 1)]
            assert [Fraction(x, den) for x in accumulate(nums)] == fraction_binomial_cdf_row(n, q)

    @pytest.mark.parametrize("n", [1, 5, 12, 40])
    def test_cdf_matches_pascal_oracle(self, n):
        nums, den = binomial_numerators(n, Fraction(1, 5))
        for k, total in enumerate(accumulate(nums)):
            assert Fraction(total, den) == pascal_binomial_cdf(n, k, Fraction(1, 5))


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

    @pytest.mark.parametrize("t", [Fraction(1, 10), Fraction(1, 20)])
    def test_matches_fraction_row(self, t):
        rows = divergence_scan(t, range(201))
        got = [(r.level, r.k_min, r.k_max, r.tilde_ratio) for r in rows]
        assert got == [fraction_divergence_row(t, n) for n in range(201)]

    @pytest.mark.parametrize(
        "t,n,tied",
        [(Fraction(1, 25), 2, "k_max"), (Fraction(13, 125), 3, "k_max"), (Fraction(64, 625), 4, "k_min")],
    )
    def test_exact_ties(self, t, n, tied):
        # The threshold equals the CDF (k_min) or the upper tail (k_max) at
        # the answer exactly, so a strict comparison would move the answer.
        (row,) = divergence_scan(t, [n])
        cdf = fraction_binomial_cdf_row(n, Fraction(1, 5))
        if tied == "k_min":
            assert cdf[row.k_min] == 4 * t
        else:
            assert 1 - cdf[row.k_max - 1] == t
        assert (row.level, row.k_min, row.k_max, row.tilde_ratio) == fraction_divergence_row(t, n)

    def test_threshold_domain(self):
        with pytest.raises(PreconditionError):
            divergence_scan(Fraction(1, 8), [10])
        with pytest.raises(PreconditionError):
            divergence_scan(Fraction(1, 4), [10])


class TestComponentQuantiles:
    @pytest.mark.parametrize("seq", [HH, HALF])
    @pytest.mark.parametrize("level", [1, 4, 8])
    def test_exact_engine_matches_component_enumeration(self, seq, level):
        s = Fraction(1, 10)
        g = Generated(seq, level)
        lo, hi = g.envelope
        comps = components(g, lo, hi)
        tl = tilde_fraction_length(comps, (lo, hi), FractionQuery(s, Side.LARGEST)).value
        ts = tilde_fraction_length(comps, (lo, hi), FractionQuery(s, Side.SMALLEST)).value
        assert tilde_quantiles(seq, level, [(s, "largest"), (s, "smallest")]) == [tl, ts]

    def test_half_arrays_match_exact_law(self):
        # Each half is the sorted integer form of the exact law over its stages.
        for seq in (HH, HALF, QUARTER, TWO_SEVENTHS):
            for level in (0, 1, 5, 9):
                keys, masses, den_x, den_w = porestats._half_law(list(islice(seq.stages(), level)))
                law = length_law(seq, level)
                atoms = sorted(law.masses)
                assert [Fraction(k, den_x) for k in keys] == atoms
                assert [Fraction(m, den_w) for m in masses] == [law.masses[x] for x in atoms]

    def test_split_half_engine_matches_exact(self):
        s = Fraction(1, 10)
        for lvl in (8, 10, 12):
            masses = length_law(HH, lvl).masses
            expected = fraction_law_quantiles(masses, [s], True) + fraction_law_quantiles(masses, [s], False)
            assert tilde_quantiles(HH, lvl, [(s, "largest"), (s, "smallest")]) == expected

    def test_markov_bounds_hold_to_level_30(self):
        s = Fraction(1, 10)
        for level in range(0, 31):
            L, S = tilde_quantiles(HH, level, [(s, "largest"), (s, "smallest")])
            mb = markov_bounds_from_moments(
                moment_number(moment_prefixes(HH, level, 1)[level]),
                moment_number(moment_prefixes(HH, level, -1)[level]),
                s,
                11,
                Fraction(9, 100),
            )
            assert float(L) <= float(mb.upper_for_tilde_largest) * (1 + 1e-9)
            assert float(S) >= float(mb.lower_for_tilde_smallest) * (1 - 1e-9)
            assert float(L) / float(S) <= float(mb.ratio_bound) * (1 + 1e-9)


def _threshold_grid(masses):
    """Plain thresholds plus ties: the mass up to and the mass beyond a few
    atoms spread over the support."""
    atoms = sorted(masses)
    ts = {Fraction(1, 1000), Fraction(1, 10), Fraction(1, 3), Fraction(1, 2), Fraction(9, 10)}
    picks = {0, len(atoms) // 4, len(atoms) // 2, len(atoms) - 2}
    below = Fraction(0)
    for k, x in enumerate(atoms[:-1]):
        below += masses[x]
        if k in picks:
            ts |= {below, 1 - below}  # P(X <= atoms[k]) and P(X >= atoms[k + 1])
    return sorted(ts)


class TestExactQuantiles:
    """tilde_quantiles against the Fraction law and, deep down, against a
    certificate checked on Fraction half laws."""

    @pytest.mark.parametrize("seq", [HH, HALF, QUARTER, TWO_SEVENTHS], ids=seq_id)
    def test_matches_fraction_law(self, seq):
        for level in range(0, 15):
            masses = length_law(seq, level).masses
            queries = [(t, side) for t in _threshold_grid(masses) for side in ("largest", "smallest")]
            got = tilde_quantiles(seq, level, queries)
            largest = fraction_law_quantiles(masses, [t for t, _ in queries], True)
            smallest = fraction_law_quantiles(masses, [t for t, _ in queries], False)
            expected = [(lg if side == "largest" else sm) for (_, side), lg, sm in zip(queries, largest, smallest)]
            assert all(type(x) is Fraction for x in got)
            assert got == expected, f"level {level}"

    @pytest.mark.parametrize("level", [20, 25, 30])
    def test_certificate_at_deep_levels(self, level):
        mid = level // 2
        half_a = fraction_length_law(stage_value(HH, i) for i in range(1, mid + 1))
        half_b = fraction_length_law(stage_value(HH, i) for i in range(mid + 1, level + 1))
        queries = [(Fraction(1, 10), "largest"), (Fraction(2, 7), "smallest")]
        if level < 30:  # each Fraction certificate at level 30 takes over a second
            queries += [(Fraction(1, 10), "smallest"), (Fraction(1, 2), "largest")]
        for (t, side), x in zip(queries, tilde_quantiles(HH, level, queries)):
            assert type(x) is Fraction
            ge, gt = product_tails(half_a, half_b, x)
            assert ge > gt  # x is an atom
            if side == "largest":
                assert ge >= t > gt  # P(X >= x) >= t > P(X > x)
            else:
                assert 1 - gt >= t > 1 - ge  # P(X <= x) >= t > P(X < x)

    @pytest.mark.parametrize("level", [60, 200])
    def test_constant_half_follows_the_binomial_row(self, level):
        # X = 2^-Y with Y ~ Bin(n, 1/5); D = 5^n and K = 2^n overflow floats.
        row = fraction_binomial_cdf_row(level, Fraction(1, 5))  # P(Y <= k)
        for t in (Fraction(1, 1000), Fraction(1, 10), Fraction(1, 2), row[level // 5]):
            k_lo = next(k for k in range(level + 1) if row[k] >= t)
            k_hi = max(k for k in range(level + 1) if 1 - (row[k - 1] if k else 0) >= t)
            got = tilde_quantiles(HALF, level, [(t, "largest"), (t, "smallest")])
            assert got == [Fraction(1, 2**k_lo), Fraction(1, 2**k_hi)]

    @settings(max_examples=40, deadline=None)
    @given(
        c=st.fractions(min_value=Fraction(1, 30), max_value=1, max_denominator=30),
        level=st.integers(min_value=0, max_value=60),
        t=st.fractions(min_value=Fraction(1, 999), max_value=Fraction(998, 999), max_denominator=999),
    )
    def test_random_constant_laws(self, c, level, t):
        seq = ContractionSequence.constant(c)
        masses = length_law(seq, level).masses
        expected = fraction_law_quantiles(masses, [t], True) + fraction_law_quantiles(masses, [t], False)
        assert tilde_quantiles(seq, level, [(t, "largest"), (t, "smallest")]) == expected

    @settings(max_examples=15, deadline=None)
    @given(
        level=st.integers(min_value=8, max_value=12),
        ts=st.lists(st.fractions(min_value=Fraction(1, 999), max_value=Fraction(998, 999), max_denominator=999),
                    min_size=1, max_size=4),
    )
    def test_random_half_harmonic_thresholds(self, level, ts):
        masses = length_law(HH, level).masses
        queries = [(t, side) for t in ts for side in ("largest", "smallest")]
        largest = fraction_law_quantiles(masses, ts, True)
        smallest = fraction_law_quantiles(masses, ts, False)
        expected = [x for pair in zip(largest, smallest) for x in pair]
        assert tilde_quantiles(HH, level, queries) == expected

    def test_row_pointers_match_a_linear_search(self):
        rng = random.Random(7)
        kb = sorted(rng.sample(range(1, 10**6), 120))
        keys = sorted(rng.sample(range(1, 10**6), 80))

        def first(v):
            return [next((j for j, b in enumerate(kb) if k * b >= v), len(kb)) for k in keys]

        for _ in range(30):
            k, b = rng.choice(keys), rng.choice(kb)
            vs = sorted(k * b + d for d in (-rng.randrange(1, 10**9), -1, 0, 1, rng.randrange(1, 10**9)))
            for v in vs:  # on a product, next to one, and inside wide windows
                expected = first(v)
                assert porestats._row_pointers(kb, v, keys, [0] * len(keys), [len(kb)] * len(keys)) == expected
                assert porestats._row_pointers(kb, v, keys, first(vs[0]), first(vs[-1])) == expected

    def test_one_atom_laws(self):
        assert tilde_quantiles(ONE, 40, [(Fraction(1, 2), "largest")]) == [Fraction(1)]
        assert tilde_quantiles(HH, 0, [(Fraction(1, 3), "smallest")]) == [Fraction(1)]

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            tilde_quantiles(HH, 5, [(Fraction(1), "largest")])
        with pytest.raises(PreconditionError):
            tilde_quantiles(HH, 5, [(Fraction(1, 2), "middle")])
        with pytest.raises(PreconditionError):
            tilde_quantiles(HH, -1, [(Fraction(1, 2), "largest")])


class TestWarmBrackets:
    """Each query of a call starts from the tails that earlier queries left
    behind, narrowed by the run bounds, so its answer must not depend on
    which queries came first."""

    @pytest.mark.parametrize("seq", [HH, HALF, TWO_SEVENTHS], ids=seq_id)
    @pytest.mark.parametrize(
        "ts", [(Fraction(1, 10), Fraction(1, 2)), (Fraction(77, 1024), Fraction(501, 1024))],
        ids=lambda ts: ",".join(map(str, ts)),
    )
    def test_answers_do_not_depend_on_query_order(self, seq, ts):
        queries = [(t, side) for t in ts for side in ("largest", "smallest")]
        for level in range(0, 17):
            answers = dict(zip(queries, tilde_quantiles(seq, level, queries)))
            if level <= 14:
                masses = length_law(seq, level).masses
                largest = fraction_law_quantiles(masses, list(ts), True)
                smallest = fraction_law_quantiles(masses, list(ts), False)
                expected = {(t, "largest"): x for t, x in zip(ts, largest)}
                expected |= {(t, "smallest"): x for t, x in zip(ts, smallest)}
                assert answers == expected, f"level {level}"
            for order in permutations(queries):
                assert tilde_quantiles(seq, level, order) == [answers[q] for q in order], (level, order)

    def test_rows_per_query_at_level_24(self):
        # Neither side sweeps A's rows more than twice: the lower end starts
        # from the run bounds, not from the smallest atom.
        tail = porestats._ProductTail(HH, 24)
        for side in ("largest", "smallest"):
            tail.quantile(Fraction(1, 10), side)
            assert 0 < tail.row_evaluations <= 2 * len(tail.ka), side

    def test_smallest_side_rows_at_level_28(self):
        tail = porestats._ProductTail(HH, 28)
        tail.quantile(Fraction(1, 10), "largest")
        tail.quantile(Fraction(1, 10), "smallest")
        assert tail.row_evaluations < 30_000

    def test_walk_serves_a_later_query(self):
        tail = porestats._ProductTail(HH, 20)
        tail.quantile(Fraction(1, 2), "largest")
        tail.quantile(Fraction(1, 2), "smallest")
        assert tail.row_evaluations == 0


def _perturbed(level, moves):
    """The constant-1/2 law at ``level`` over 8 den_x and 7 den_w, with
    integer mass moved between atom keys."""
    law = length_law(HALF, level)
    weights = {8 * key: 7 * w for key, w in law.weights.items()}
    for src, dst, amount in moves:
        weights[src] -= amount
        weights[dst] = weights.get(dst, 0) + amount
        if weights[src] == 0:
            del weights[src]
    return LengthDistribution(weights, 8 * law.den_x, 7 * law.den_w, level, HALF)


class TestBinomialCheckDifferential:
    @pytest.mark.parametrize("level", [0, 1, 2, 7, 30, 90])
    def test_binomial_laws(self, level):
        law = length_law(HALF, level)
        assert binomial_check(law) == fraction_binomial_check(law) == (True, Fraction(0))

    @pytest.mark.parametrize("level", [0, 1, 7, 30])
    def test_binomial_law_over_scaled_denominators(self, level):
        law = length_law(HALF, level)
        scaled = LengthDistribution(
            {3 * key: 3 * w for key, w in law.weights.items()}, 3 * law.den_x, 3 * law.den_w, level, HALF
        )
        assert scaled.masses == law.masses
        assert binomial_check(scaled) == (True, Fraction(0))

    @pytest.mark.parametrize("level", [1, 3, 12, 40])
    def test_perturbed_laws(self, level):
        one = 8 << level  # keys: the atom x is x * one, so 2^-level is 8
        half, quarter, last = one // 2, one // 4, 8
        grid = 7  # 1 / 5^level in mass units 1 / (7 * 5^level); the mass of 2^-level
        laws = [
            _perturbed(level, [(one, half, grid)]),  # on the 1/5^n grid
            _perturbed(level, [(one, half, 1)]),  # off the grid
            _perturbed(level, [(one, 3 * one // 8, grid)]),  # an atom that is not 2^-k
            _perturbed(level, [(last, last // 2, grid)]),  # 2^-n moved past n
            _perturbed(level, [(last, 2 * last, 3), (last, last // 2, 4)]),  # 2^-n missing
            # after the first move the 1/2 atom holds 2 * grid at level 1
            _perturbed(level, [(one, half, grid), (half, quarter, 2 * grid)]),
        ]
        for law in laws:
            ok, dev = binomial_check(law)
            assert (ok, dev) == fraction_binomial_check(law)
            assert not ok and type(dev) is Fraction and dev > 0

    def test_reads_the_integer_law_only(self):
        for law in porestats.length_laws(HALF, 60):
            assert binomial_check(law) == (True, Fraction(0))
            assert "masses" not in law.__dict__
