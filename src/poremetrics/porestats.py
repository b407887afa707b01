"""Probability laws of the gap-length variable for generated sets.

Under normalized Lebesgue measure on the envelope, the length of the gap
component containing a uniform point is a random variable whose law obeys a
two-branch recursion: each generator stage keeps a length with weight
2/(2+c) and contracts it by c with weight c/(2+c).  Everything here -- exact
laws, moments, the expectation product bound, Markov bounds for the
component quantiles, the binomial reduction for the constant-1/2 sequence,
its normal approximation, and the quantile divergence scan -- is built on
that recursion.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

import numpy as np

from .errors import PreconditionError
from .rationals import rational_pow
from .setmodels import ContractionSequence

LAW_SUPPORT_CAP = 1 << 17
EXACT_QUANTILE_LEVEL_CAP = 12

EXPECTATION_PRODUCT_BOUND = math.exp(math.pi**2 / 75)


@dataclass(frozen=True)
class LengthDistribution:
    """Exact map from gap length to probability mass at one generator level."""

    masses: dict
    level: int
    seq: ContractionSequence | None = None

    def __post_init__(self):
        total = sum(self.masses.values(), Fraction(0))
        if total != 1:
            raise PreconditionError("probability masses must sum to one")
        if any(x <= 0 for x in self.masses):
            raise PreconditionError("lengths must be positive")

    def support(self):
        return sorted(self.masses)

    def mass(self, length) -> Fraction:
        return self.masses.get(Fraction(length), Fraction(0))


@dataclass(frozen=True)
class BinomialModel:
    """Parameters of the dyadic-exponent law for the constant-1/2 sequence."""

    n: int
    q: Fraction = Fraction(1, 5)

    def __post_init__(self):
        if not 0 < self.q < 1:
            raise PreconditionError("q must lie in (0, 1)")
        if self.n < 0:
            raise PreconditionError("n must be nonnegative")


def _integer_law(seq: ContractionSequence, idxs, cap=math.inf):
    """The two-branch recursion over the stages ``idxs`` in integers.

    Yields (masses, den_x, den_w) before the first stage and after each one:
    each atom x is stored as the key x * den_x with mass masses[key] / den_w,
    where den_x is the product of the denominators q of the factors c = p/q
    and den_w the product of 2q + p.  Keep multiplies the key by q and the
    mass by 2q; contract multiplies both by p.  Equal atoms get equal keys,
    so this is the exact law with no Fraction arithmetic on the way.
    """
    masses = {1: 1}
    den_x = den_w = 1
    yield masses, den_x, den_w
    for i in idxs:
        c = seq.value(i)
        p, q = c.numerator, c.denominator
        keep = 2 * q
        den_x *= q
        den_w *= 2 * q + p
        nxt: dict = {}
        for x, m in masses.items():
            kx = x * q
            nxt[kx] = nxt.get(kx, 0) + keep * m
            cx = x * p
            nxt[cx] = nxt.get(cx, 0) + p * m
        if len(nxt) > cap:
            raise PreconditionError(
                "law support too large to materialize; use closed-form moments "
                "or the split-half quantile engine"
            )
        masses = nxt
        yield masses, den_x, den_w


def _distribution(law, level: int, seq: ContractionSequence) -> LengthDistribution:
    masses, den_x, den_w = law
    return LengthDistribution(
        {Fraction(x, den_x): Fraction(m, den_w) for x, m in masses.items()}, level, seq
    )


def length_law(seq: ContractionSequence, level: int) -> LengthDistribution:
    """Exact gap-length law at the given level via the two-branch recursion."""
    if level < 0:
        raise PreconditionError("level must be nonnegative")
    (law,) = deque(_integer_law(seq, range(1, level + 1), LAW_SUPPORT_CAP), maxlen=1)
    return _distribution(law, level, seq)


def length_laws(seq: ContractionSequence, level: int):
    """``length_law`` at every level 0..level, from one pass of the recursion."""
    if level < 0:
        raise PreconditionError("level must be nonnegative")
    laws = _integer_law(seq, range(1, level + 1), LAW_SUPPORT_CAP)
    return (_distribution(law, n, seq) for n, law in enumerate(laws))


def moment(law: LengthDistribution, theta) -> Fraction | float:
    """Sum of length^theta weighted by mass; exact whenever every power is rational."""
    theta = Fraction(theta)
    exact_total = Fraction(0)
    exact = True
    float_total = 0.0
    for x, m in law.masses.items():
        p = rational_pow(x, theta)
        if exact and p is not None:
            exact_total += p * m
        else:
            if exact:
                float_total = float(exact_total)
                exact = False
            val = p if p is not None else float(x) ** float(theta)
            float_total += float(val) * float(m)
    return exact_total if exact else float_total


def moment_prefixes(seq: ContractionSequence, level: int, theta) -> list:
    """Closed-form E[X^theta] at every level 0..level, from one pass of prefix
    products of the stage factors (2 + c_i^(1+theta)) / (2 + c_i).

    Entries are exact Fractions up to the first stage whose power is
    irrational; from there the running product is a float, updated as
    out * float(num) / float(den), so entry L has the bits of a product
    computed for level L alone.
    """
    if level < 0:
        raise PreconditionError("level must be nonnegative")
    e = 1 + Fraction(theta)
    out: Fraction | float = Fraction(1)
    exact = True
    prefixes = [out]
    for i in range(1, level + 1):
        c = seq.value(i)
        p = rational_pow(c, e)
        if p is None:
            p = float(c) ** float(e)
            if exact:
                out = float(out)
                exact = False
        if exact:
            out *= (2 + p) / (2 + c)
        else:
            out = out * float(2 + p) / float(2 + c)
        prefixes.append(out)
    return prefixes


def moment_closed_form(seq: ContractionSequence, level: int, theta) -> Fraction | float:
    """Product form of the moment recursion: prod (2 + c_i^(1+theta)) / (2 + c_i)."""
    return moment_prefixes(seq, level, theta)[-1]


def kakeya_product(seq: ContractionSequence, level: int) -> Fraction:
    """Exact product of the mean length and the mean reciprocal length."""
    ex = moment_closed_form(seq, level, 1)
    ex_inv = moment_closed_form(seq, level, -1)
    return Fraction(ex) * Fraction(ex_inv)


@dataclass(frozen=True)
class MarkovBounds:
    upper_for_tilde_largest: Fraction | float
    lower_for_tilde_smallest: Fraction | float
    ratio_bound: Fraction | float


def markov_bounds_from_moments(ex, ex_inv, s, k, k_prime) -> MarkovBounds:
    s, k, k_prime = Fraction(s), Fraction(k), Fraction(k_prime)
    if k <= 1 / s:
        raise PreconditionError("Markov upper bound needs k > 1/s")
    if not 0 < k_prime < s:
        raise PreconditionError("Markov lower bound needs 0 < k' < s")
    return MarkovBounds(
        upper_for_tilde_largest=k * ex,
        lower_for_tilde_smallest=k_prime / ex_inv,
        ratio_bound=(k / k_prime) * ex * ex_inv,
    )


def markov_bounds(law: LengthDistribution, s, k, k_prime) -> MarkovBounds:
    """Quantile bounds from the first and inverse-first moments of a law.

    The largest-side component quantile at s is at most k E[X] for k > 1/s;
    the smallest-side quantile is at least k'/E[X^-1] for k' < s; their ratio
    is bounded by (k/k') E[X] E[X^-1].
    """
    return markov_bounds_from_moments(moment(law, 1), moment(law, -1), s, k, k_prime)


def _binomial_numerators(n: int, q: Fraction) -> tuple[list[int], int]:
    """P(Y = k) * b^n = comb(n, k) a^k (b - a)^(n - k) for k = 0..n, where
    Y ~ Bin(n, q) and q = a/b, together with the common denominator b^n."""
    a, b = q.numerator, q.denominator
    return [math.comb(n, k) * a**k * (b - a) ** (n - k) for k in range(n + 1)], b**n


def binomial_pmf(n: int, k: int, q: Fraction) -> Fraction:
    if k > n:
        return Fraction(0)
    a, b = q.numerator, q.denominator
    return Fraction(math.comb(n, k) * a**k * (b - a) ** (n - k), b**n)


def binomial_cdf_row(n: int, q: Fraction) -> list[Fraction]:
    """Exact P(Y <= k) for k = 0..n, summed in integers over b^n."""
    nums, den = _binomial_numerators(n, q)
    return [Fraction(total, den) for total in accumulate(nums)]


def binomial_check(law: LengthDistribution) -> tuple[bool, Fraction]:
    """Exact test that a constant-1/2 law is binomial with q = 1/5 in the exponent."""
    if law.seq is None or law.seq.rule != "constant" or law.seq.c != Fraction(1, 2):
        raise PreconditionError("binomial_check applies to the constant-1/2 sequence")
    nums, den = _binomial_numerators(law.level, Fraction(1, 5))
    max_dev = Fraction(0)
    ok = True
    expected = {Fraction(1, 2**k): Fraction(m, den) for k, m in enumerate(nums)}
    for length in set(law.masses) | set(expected):
        dev = abs(law.masses.get(length, Fraction(0)) - expected.get(length, Fraction(0)))
        if dev != 0:
            ok = False
        max_dev = max(max_dev, dev)
    return ok, max_dev


def normal_cdf(z: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def normal_gap(model: BinomialModel) -> float:
    """Supremum over x of |P(Y <= x) - Phi((x - nq)/sqrt(nq(1-q)))|.

    The supremum is attained at a CDF jump, so both one-sided deviations at
    every integer point are examined.
    """
    n, q = model.n, model.q
    if n < 1:
        raise PreconditionError("normal approximation needs n >= 1")
    row = binomial_cdf_row(n, q)
    mu = n * float(q)
    sd = math.sqrt(n * float(q) * (1 - float(q)))
    gap = 0.0
    prev = 0.0
    for k in range(n + 1):
        phi = normal_cdf((k - mu) / sd)
        here = float(row[k])
        gap = max(gap, abs(here - phi), abs(prev - phi))
        prev = here
    return gap


def normal_quantile(r: float) -> float:
    """Inverse of the standard normal CDF, by bisection on erfc."""
    if not 0 < r < 1:
        raise PreconditionError("quantile level must lie in (0, 1)")
    lo, hi = -40.0, 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if normal_cdf(mid) < r:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def predicted_exponent_gap(n: int, t, xi1=None, xi2=None, q=Fraction(1, 5)) -> float:
    """Normal-approximation prediction of k_max - k_min in the quantile scan.

    The auxiliary levels must interlace as t < xi1 < 4t < xi2 < 1/2; they
    default to 2t and 6t.  This is an asymptotic prediction only; the scan
    itself always uses the exact CDF.
    """
    t = Fraction(t)
    xi1 = 2 * t if xi1 is None else Fraction(xi1)
    xi2 = 6 * t if xi2 is None else Fraction(xi2)
    if not t < xi1 < 4 * t < xi2 < Fraction(1, 2):
        raise PreconditionError("need t < xi1 < 4t < xi2 < 1/2")
    sd = math.sqrt(n * float(q) * (1 - float(q)))
    return (normal_quantile(1 - float(xi1)) - normal_quantile(float(xi2))) * sd


@dataclass(frozen=True)
class DivergenceRow:
    level: int
    k_min: int
    k_max: int
    tilde_ratio: Fraction


def divergence_scan(t, levels) -> list[DivergenceRow]:
    """Quantile-exponent scan of the constant-1/2 law.

    k_min is the smallest exponent whose CDF reaches 4t (the largest-side
    threshold carries the factor-4 adjustment from the dyadic comparison);
    k_max is the largest exponent whose upper tail still holds mass t.  The
    reported ratio 2^(k_max - k_min) is the component-quantile ratio.
    """
    t = Fraction(t)
    if not 0 < t < Fraction(1, 8):
        raise PreconditionError("divergence scan needs t in (0, 1/8)")
    q = Fraction(1, 5)
    out = []
    for n in levels:
        row = binomial_cdf_row(n, q)
        k_min = next(k for k in range(n + 1) if row[k] >= 4 * t)
        k_max = max(
            k for k in range(n + 1) if 1 - (row[k - 1] if k > 0 else Fraction(0)) >= t
        )
        out.append(DivergenceRow(n, k_min, k_max, Fraction(2) ** (k_max - k_min)))
    return out


# -- component quantiles of generated-set laws ------------------------------

def _cum_from_law(law: LengthDistribution, t: Fraction, largest: bool) -> Fraction:
    target = Fraction(t)
    atoms = sorted(law.masses, reverse=largest)
    cum = Fraction(0)
    for x in atoms:
        cum += law.masses[x]
        if cum >= target:
            return x
    raise PreconditionError("threshold exceeds total mass")


def _half_arrays(seq: ContractionSequence, idxs):
    """Sorted atoms and masses of the law over the stages ``idxs``, as floats.

    Integer keys over one denominator sort in the exact atom order, and
    int / int is correctly rounded, so these are the floats of the exact law.
    """
    ((masses, den_x, den_w),) = deque(_integer_law(seq, idxs), maxlen=1)
    order = sorted(masses)
    xs = np.array([x / den_x for x in order])
    ws = np.array([masses[x] / den_w for x in order])
    return xs, ws


def _split_half_engine(seq, level):
    """Meet-in-the-middle tail-probability closures for the product law."""
    mid = level // 2
    xa, wa = _half_arrays(seq, range(1, mid + 1))
    xb, wb = _half_arrays(seq, range(mid + 1, level + 1))
    top_b = np.concatenate([np.cumsum(wb[::-1])[::-1], [0.0]])
    bot_b = np.concatenate([[0.0], np.cumsum(wb)])

    def p_ge(L):
        idx = np.searchsorted(xb, L / xa, side="left")
        return float(np.dot(wa, top_b[idx]))

    def p_le(L):
        idx = np.searchsorted(xb, L / xa, side="right")
        return float(np.dot(wa, bot_b[idx]))

    lo_val = float(xa[0] * xb[0])
    return p_ge, p_le, lo_val, 1.0


def _solve_largest(t):
    def solve(p_ge, _p_le, lo, hi):
        tf = float(t)
        if p_ge(hi) >= tf:
            return hi
        for _ in range(120):
            mid = 0.5 * (lo + hi)
            if p_ge(mid) >= tf:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-15 * hi:
                break
        return lo

    return solve


def _solve_smallest(t):
    def solve(_p_ge, p_le, lo, hi):
        tf = float(t)
        if p_le(lo) >= tf:
            return lo
        for _ in range(120):
            mid = 0.5 * (lo + hi)
            if p_le(mid) >= tf:
                hi = mid
            else:
                lo = mid
            if hi - lo <= 1e-15 * hi:
                break
        return hi

    return solve


def tilde_quantile_largest(seq: ContractionSequence, level: int, t) -> Fraction | float:
    """Largest-side component quantile: sup{L : P(X >= L) >= t}.

    Exact (Fraction) while the law is materializable; a float from the
    split-half engine beyond that, accurate to ~1e-12 relative.
    """
    t = Fraction(t)
    if not 0 < t < 1:
        raise PreconditionError("t must lie in (0, 1)")
    if seq.rule == "constant" or level <= EXACT_QUANTILE_LEVEL_CAP:
        return _cum_from_law(length_law(seq, level), t, largest=True)
    return _solve_largest(t)(*_split_half_engine(seq, level))


def tilde_quantile_smallest(seq: ContractionSequence, level: int, t) -> Fraction | float:
    """Smallest-side component quantile: inf{L : P(X <= L) >= t}."""
    t = Fraction(t)
    if not 0 < t < 1:
        raise PreconditionError("t must lie in (0, 1)")
    if seq.rule == "constant" or level <= EXACT_QUANTILE_LEVEL_CAP:
        return _cum_from_law(length_law(seq, level), t, largest=False)
    return _solve_smallest(t)(*_split_half_engine(seq, level))


def tilde_quantiles(seq: ContractionSequence, level: int, queries):
    """Answer several (t, side) component-quantile queries from one build.

    ``queries`` is an iterable of (t, side) with side "largest" or
    "smallest"; one exact law (small levels, or any constant sequence) or one
    split-half engine (large levels) serves every query.
    """
    queries = [(Fraction(t), side) for t, side in queries]
    for t, side in queries:
        if not 0 < t < 1:
            raise PreconditionError("t must lie in (0, 1)")
        if side not in ("largest", "smallest"):
            raise PreconditionError(f"unknown side {side!r}")
    if seq.rule == "constant" or level <= EXACT_QUANTILE_LEVEL_CAP:
        law = length_law(seq, level)
        return [
            _cum_from_law(law, t, largest=(side == "largest")) for t, side in queries
        ]
    p_ge, p_le, lo, hi = _split_half_engine(seq, level)
    out = []
    for t, side in queries:
        solver = _solve_largest(t) if side == "largest" else _solve_smallest(t)
        out.append(solver(p_ge, p_le, lo, hi))
    return out


def tilde_quantile_pair(seq: ContractionSequence, level: int, t):
    """Both component quantiles at once, sharing one law or split-half build."""
    largest, smallest = tilde_quantiles(seq, level, [(t, "largest"), (t, "smallest")])
    return largest, smallest
