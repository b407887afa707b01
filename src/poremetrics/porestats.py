"""Probability laws of the gap-length variable for generated sets.

Under normalized Lebesgue measure on the envelope, the length of the gap
component containing a uniform point is a random variable whose law obeys a
two-branch recursion: each generator stage keeps a length with weight
2/(2+c) and contracts it by c with weight c/(2+c).  Everything here -- exact
laws, closed-form moments, the expectation product bound, the exact
component quantiles themselves (Fractions at every level, from the law split
into two halves), the binomial reduction for the constant-1/2 sequence, and
the quantile divergence scan -- is built on that recursion.  The moments
summed atom by atom over a law, the Markov bounds for the component
quantiles and the normal approximation of the binomial reduction are test
references in ``tests/oracles.py``.  Each quantile query of a
call starts from the tightest exact tails that earlier queries evaluated
(the ends of the support for the first), and integer bounds on the tail
from runs of one half's atoms narrow that bracket before any row of the
exact search is evaluated.  The recursion runs in
integers, and a ``LengthDistribution`` stores its output as is: integer atom
keys over one length denominator, integer masses over one mass denominator.
Its Fraction view ``masses`` is built only when a caller reads it.  Every
law, moment and product reads the stages as the coprime integer pairs
(a, b), c_i = a/b, of ``ContractionSequence.stages``.  The closed-form
moments and the expectation product are prefix products of small stage
factors, carried as coprime integer pairs while exact; no Fraction is
formed on the way.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections import deque, namedtuple
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, compress, islice, pairwise
from operator import lt, mul, not_
from statistics import NormalDist

from .errors import PreconditionError
from .rationals import power_pair
from .setmodels import ContractionSequence

LAW_SUPPORT_CAP = 1 << 17

EXPECTATION_PRODUCT_BOUND = math.exp(math.pi**2 / 75)


class LengthDistribution:
    """Exact gap-length law at one generator level, in integers: the atom
    key / den_x carries the mass weights[key] / den_w."""

    def __init__(self, weights: dict, den_x: int, den_w: int, level: int, seq: ContractionSequence | None = None):
        if sum(weights.values()) != den_w:
            raise PreconditionError("probability masses must sum to one")
        if any(key <= 0 for key in weights):
            raise PreconditionError("lengths must be positive")
        if any(w < 0 for w in weights.values()):
            raise PreconditionError("masses must be nonnegative")
        self.weights, self.den_x, self.den_w, self.level, self.seq = weights, den_x, den_w, level, seq

    @cached_property
    def masses(self) -> dict:
        """The law as a map from Fraction length to Fraction mass, built on
        first use, in the recursion's insertion order."""
        den_x, den_w = self.den_x, self.den_w
        return {Fraction(k, den_x): Fraction(m, den_w) for k, m in self.weights.items()}


def _integer_law(stages, cap=math.inf):
    """The two-branch recursion in integers over ``stages``, the coprime
    pairs (p, q) of the factors c = p/q.

    Yields (masses, den_x, den_w) before the first stage and after each one:
    each atom x is stored as the key x * den_x with mass masses[key] / den_w,
    where den_x is the product of the q and den_w the product of 2q + p.
    Keep multiplies the key by q and the mass by 2q; contract multiplies both
    by p.  Equal atoms get equal keys, so this is the exact law with no
    Fraction arithmetic on the way.
    """
    masses = {1: 1}
    den_x = den_w = 1
    yield masses, den_x, den_w
    for p, q in stages:
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
                "or tilde_quantiles"
            )
        masses = nxt
        yield masses, den_x, den_w


def length_laws(seq: ContractionSequence, level: int):
    """The gap-length law at every level 0..level, from one pass of the recursion."""
    if level < 0:
        raise PreconditionError("level must be nonnegative")
    laws = _integer_law(islice(seq.stages(), level), LAW_SUPPORT_CAP)
    return (LengthDistribution(*law, n, seq) for n, law in enumerate(laws))


def length_law(seq: ContractionSequence, level: int) -> LengthDistribution:
    """Exact gap-length law at the given level via the two-branch recursion."""
    (law,) = deque(length_laws(seq, level), maxlen=1)
    return law


def _times(n: int, d: int, f_num: int, f_den: int) -> tuple[int, int]:
    """n/d * f_num/f_den as a coprime pair, for coprime n, d and a small
    factor: the factor is reduced first, then cross-reduced against the
    pair, so every gcd has a small side and no Fraction is formed."""
    g = math.gcd(f_num, f_den)
    f_num, f_den = f_num // g, f_den // g
    g = math.gcd(n, f_den)
    if g > 1:
        n, f_den = n // g, f_den // g
    g = math.gcd(d, f_num)
    if g > 1:
        d, f_num = d // g, f_num // g
    return n * f_num, d * f_den


def moment_stream(seq: ContractionSequence, theta):
    """Closed-form E[X^theta] at levels 0, 1, 2, ..., endlessly, as the
    prefix products of the stage factors (2 + c_i^(1+theta)) / (2 + c_i).

    Entries are coprime integer pairs (n, d), E[X^theta] = n/d, up to the
    first stage whose power is irrational; from there the running product
    is a float, started as n / d (rounded as ``float(Fraction(n, d))``) and
    updated as out * float(2 + c^(1+theta)) / float(2 + c), so entry L has
    the bits of a product computed for level L alone.
    """
    e = 1 + Fraction(theta)
    e_num, e_den = e.numerator, e.denominator
    n = d = 1
    out = None
    yield n, d
    for a, b in seq.stages():
        p = power_pair(a, b, e_num, e_den)
        if out is None and p is not None:
            n, d = _times(n, d, (2 * p[1] + p[0]) * b, p[1] * (2 * b + a))
            yield n, d
            continue
        if out is None:
            out = n / d
        top = 2 + (a / b) ** (e_num / e_den) if p is None else (2 * p[1] + p[0]) / p[1]
        out = out * top / ((2 * b + a) / b)
        yield out


def expectation_products(seq: ContractionSequence):
    """E[X] E[X^-1] at levels 0, 1, 2, ..., endlessly, as coprime integer
    pairs: the prefix products of the two moment stage factors,
    (2 + c_i^2) / (2 + c_i) times 3 / (2 + c_i), each rational."""
    n = d = 1
    yield n, d
    for a, b in seq.stages():
        n, d = _times(n, d, 3 * (2 * b * b + a * a), (2 * b + a) ** 2)
        yield n, d


def binomial_numerators(n: int, q: Fraction) -> tuple[list[int], int]:
    """P(Y = k) * b^n = comb(n, k) a^k (b - a)^(n - k) for k = 0..n, where
    Y ~ Bin(n, q) and q = a/b with 0 < q < 1, together with the common
    denominator b^n.  The row follows from (b - a)^n by the ratio of
    neighbouring terms, (n - k) a / ((k + 1) (b - a)); each division is
    exact, since every term is an integer."""
    a, b = q.numerator, q.denominator
    row = [(b - a) ** n]
    for k in range(n):
        row.append(row[k] * (n - k) * a // ((k + 1) * (b - a)))
    return row, b**n


def binomial_check(law: LengthDistribution, row=None) -> tuple[bool, Fraction]:
    """Exact test that a constant-1/2 law is binomial with q = 1/5 in the exponent.

    Bin(n, 1/5) puts mass nums[k] / 5^n on the atom 2^-k, where ``row`` =
    (nums, 5^n) is ``binomial_numerators(n, 1/5)``, built here unless the
    caller has it.  Every deviation is an integer over 5^n * den_w: the atom
    key / den_x is 2^-k exactly when key << k == den_x, and then deviates by
    |w * 5^n - nums[k] * den_w|; any other atom, and any k the law lacks,
    deviates by its whole mass.
    Returns whether the law matches and the largest deviation of any atom.
    """
    if law.seq is None or law.seq.rule != "constant" or law.seq.c != Fraction(1, 2):
        raise PreconditionError("binomial_check applies to the constant-1/2 sequence")
    n = law.level
    nums, den = binomial_numerators(n, Fraction(1, 5)) if row is None else row
    den_x, den_w = law.den_x, law.den_w
    worst = 0
    seen = [False] * (n + 1)
    for key, w in law.weights.items():
        k = den_x.bit_length() - key.bit_length()
        if 0 <= k <= n and key << k == den_x:
            seen[k] = True
            worst = max(worst, abs(w * den - nums[k] * den_w))
        else:
            worst = max(worst, abs(w) * den)
    worst = max([worst] + [num * den_w for num, hit in zip(nums, seen) if not hit])
    max_dev = Fraction(worst, den * den_w)
    return max_dev == 0, max_dev


DivergenceRow = namedtuple("DivergenceRow", "level k_min k_max tilde_ratio")


def divergence_row(t: Fraction, row) -> DivergenceRow:
    """Quantile-exponent row of the constant-1/2 law at level n, from the
    level's ``row = binomial_numerators(n, 1/5)``, Y ~ Bin(n, 1/5).

    k_min is the smallest exponent whose CDF reaches 4t (the largest-side
    threshold carries the factor-4 adjustment from the dyadic comparison);
    k_max is the largest exponent whose upper tail still holds mass t.  The
    reported ratio 2^(k_max - k_min) is the component-quantile ratio.  Both
    tests compare integers: with t = a/b and below[k] = 5^n P(Y < k),
    P(Y <= k) >= 4t reads b below[k + 1] >= 4a 5^n and P(Y >= k) >= t reads
    b (5^n - below[k]) >= a 5^n.
    """
    if not 0 < t < Fraction(1, 8):
        raise PreconditionError("divergence scan needs t in (0, 1/8)")
    a, b = t.numerator, t.denominator
    nums, den = row
    n = len(nums) - 1
    below = list(accumulate(nums, initial=0))
    k_min = next(k for k in range(n + 1) if b * below[k + 1] >= 4 * a * den)
    k_max = max(k for k in range(n + 1) if b * (den - below[k]) >= a * den)
    return DivergenceRow(n, k_min, k_max, Fraction(2) ** (k_max - k_min))


# -- component quantiles of generated-set laws ------------------------------

QUANTILE_ENUMERATION_PAIRS = 256
QUANTILE_CERTIFY_PROBES = 12  # run-bound probes before the first undecided one
QUANTILE_EDGE_PROBES = 2  # run-bound probes per end after it
QUANTILE_OVERSHOOT = 1 / 8  # stretch of a pivot's distance from the end that moved last


def _half_law(stages: list):
    """Sorted integer keys of the law over ``stages`` (coprime pairs, as
    ``_integer_law`` reads them), their integer masses, and the key and mass
    denominators.

    The law is the product of the ``_integer_law`` of each half of the
    stages: keys and masses multiply, and equal keys merge.  Both factors
    are walked by rising key, so the products arrive in ascending runs that
    the final sort merges.
    """
    mid = len(stages) // 2
    ((m1, x1, w1),) = deque(_integer_law(stages[:mid]), maxlen=1)
    ((m2, x2, w2),) = deque(_integer_law(stages[mid:]), maxlen=1)
    row = sorted(m2.items())
    masses: dict = {}
    for a, wa in sorted(m1.items()):
        for b, wb in row:
            k = a * b
            masses[k] = masses.get(k, 0) + wa * wb
    keys = sorted(masses)
    return keys, [masses[k] for k in keys], x1 * x2, w1 * w2


_NORMAL = NormalDist()


def _score(tail: int, den: int) -> float:
    """Normal score of the upper-tail mass tail/den, growing as the tail
    shrinks.  It varies with log v far more evenly than the tail does, so
    regula falsi on it places pivots better."""
    if 2 * tail <= den:
        return -_NORMAL.inv_cdf(max(tail / den, 1e-300))
    return _NORMAL.inv_cdf(max((den - tail) / den, 1e-300))


def _shrink(z_far: float, z_old: float, z_new: float, z_need: float) -> float:
    """The score of the end that stayed put while the other end moved twice
    running, from z_old to z_new, shrunk towards the target
    (Anderson-Bjorck; halved by default)."""
    m = 1 - (z_new - z_need) / (z_old - z_need) if z_old != z_need else 0.0
    return z_need + (z_far - z_need) * (m if m > 0 else 0.5)


def _interpolate(z_lo: float, z_need: float, z_hi: float) -> float:
    """Where z_need falls between the scores of two ends, kept off the
    ends; the middle when the scores do not bracket it."""
    if z_lo < z_need < z_hi:
        return min(max((z_need - z_lo) / (z_hi - z_lo), 1 / 64), 63 / 64)
    return 0.5


def _log_pivot(lo: int, hi: int, lam: float) -> int:
    """The integer near lo * (hi/lo)**lam, kept inside [lo + 1, hi - 1]; the
    float only places the pivot."""
    span = hi - lo
    if span << 32 < lo:  # hi/lo < 1 + 2^-32: log and linear scale agree
        v = lo + (int(lam * (1 << 53)) * span >> 53)
    else:
        x = (1 - lam) * math.log2(lo) + lam * math.log2(hi)
        shift = max(int(x) - 60, 0)
        v = round(2 ** (x - shift)) << shift
    return min(max(v, lo + 1), hi - 1)


def _row_pointers(kb: list, v: int, keys, lo, hi) -> list:
    """For each row key k, the first j in [lo, hi] with k * kb[j] >= v (hi if
    none), given that the rows come by rising key and the bounds fall.

    One two-pointer merge: the pointer only falls from row to row, and one
    more than 8 places down is found by bisection.
    """
    out = []
    j = hi[0] if hi else 0
    for k, a, b in zip(keys, lo, hi):
        if j > b:
            j = b
        if j - a > 8 and k * kb[j - 8] >= v:
            j = bisect_left(kb, -(-v // k), a, j - 8)
        else:
            while j > a and k * kb[j - 1] >= v:
                j -= 1
        out.append(j)
    return out


class _ProductTail:
    """The exact upper tail of the gap-length law, from two half laws.

    X = A * B with A the law over stages 1..L//2 and B over the rest.  A's
    atoms are ka[i] / dxa with masses wa[i] / dwa, and B's likewise, so each
    atom of X is an integer v over K = dxa * dxb, each mass an integer over
    D = dwa * dwb, and the tail D * P(X >= v / K) is

        T(v) = sum_i wa[i] * top[first j with ka[i] * kb[j] >= v],

    with top the suffix sums of B's masses.  Row i's pointer is that first j.

    ``largest_atom(need)`` returns the largest v with T(v) >= need, which is
    an atom.  Each query starts from the tightest exact tails known so far,
    T(lo) >= need > T(hi): the ends of the support, and every tail an
    earlier query evaluated.  Run bounds then narrow that bracket before any
    row is evaluated: A's keys fall into about sqrt(len(ka)) runs, and a run
    with keys in [a, a'] and mass W adds between W * top[first j with
    a' * kb[j] >= v] and W * top[first j with a * kb[j] >= v] to T(v).  One
    bisection per run and side gives integer bounds L(v) <= T(v) <= U(v)
    and bounds on every row's pointer.  Probes placed by regula falsi move
    the lower end while L(v) >= need and the upper end while U(v) < need;
    after the first probe that decides neither, two more per end move each
    end towards it.  A run whose pointer bounds meet is frozen whole.

    The exact search keeps T(lo) >= need > T(hi) with row pointers, or
    bounds on them, at both ends; every atom in [lo, hi) is a pair (i, j)
    between them.  Pivots come from regula falsi on the normal score of the
    tail against log v, with the Anderson-Bjorck guard against one end
    standing still, interpolation on T itself where the float scores cannot
    separate the target from an end, and a bisection after six steps that
    each left over half the pairs.  From the second pivot on, the
    interpolated distance from the end that moved last is stretched by an
    eighth, so that steps cross the root instead of creeping up to it from
    one side.  Floats only place pivots and probes; every decision compares
    integers.  A row whose pointers meet is frozen.  Once at most
    QUANTILE_ENUMERATION_PAIRS pairs are left they are enumerated, merged by
    product and walked up through [lo, hi).  The walks and every evaluated
    tail serve the later queries; ``row_evaluations`` counts the rows the
    last query evaluated.
    """

    def __init__(self, seq: ContractionSequence, level: int):
        stages = list(islice(seq.stages(), level))
        mid = level // 2
        self.ka, self.wa, dxa, dwa = _half_law(stages[:mid])
        self.kb, self.wb, dxb, dwb = _half_law(stages[mid:])
        self.top = list(accumulate(reversed(self.wb), initial=0))[::-1]
        self.K, self.D = dxa * dxb, dwa * dwb
        ka, na = self.ka, len(self.ka)
        runs = math.isqrt(na)
        self.starts = [na * r // runs for r in range(runs + 1)]
        cum = list(accumulate(self.wa, initial=0))
        self.run_min = [ka[s] for s in self.starts[:-1]]
        self.run_max = [ka[e - 1] for e in self.starts[1:]]
        self.run_mass = [cum[e] - cum[s] for s, e in pairwise(self.starts)]
        self.known = [(ka[0] * self.kb[0], self.D), (ka[-1] * self.kb[-1] + 1, 0)]  # (v, T(v)) by v
        self.walks = []  # ([(atom, T(atom)), ...] ascending, T past the last atom)
        self.row_evaluations = 0

    def quantile(self, t: Fraction, side: str) -> Fraction:
        """The component quantile at t on the given side (see tilde_quantiles)."""
        a, b = t.numerator, t.denominator
        need = -(-a * self.D // b) if side == "largest" else (b - a) * self.D // b + 1
        return Fraction(self.largest_atom(need), self.K)

    def _run_pointers(self, v: int, keys: list) -> list:
        """For each run key a, the first j with a * kb[j] >= v."""
        kb = self.kb
        return [bisect_left(kb, -(-v // a)) for a in keys]

    def _run_tail(self, ptr: list) -> int:
        """The tail bound that gives each run the pointer ptr[run]."""
        return sum(map(mul, self.run_mass, map(self.top.__getitem__, ptr)))

    def _certify(self, need: int, lo: tuple, hi: tuple):
        """The exact bracket lo = (v, T(v)) with T(v) >= need and hi with
        T(v) < need, narrowed by the run bounds.  Each end comes back as
        (v, tail estimate, score, run pointer bounds): a lower bound on
        every pointer at the lower end, an upper bound at the upper end."""
        D, z_need = self.D, _score(2 * need - 1, 2 * self.D)
        (v_lo, t_lo), (v_hi, t_hi) = lo, hi
        z_lo, z_hi = _score(t_lo, D), _score(t_hi, D)
        p_lo = p_hi = None
        side = 0
        for _ in range(QUANTILE_CERTIFY_PROBES):
            if v_hi - v_lo < 2:
                break
            v = _log_pivot(v_lo, v_hi, _interpolate(z_lo, z_need, z_hi))
            p_min, p_max = self._run_pointers(v, self.run_min), self._run_pointers(v, self.run_max)
            low, high = self._run_tail(p_min), self._run_tail(p_max)
            t = (low + high) // 2
            z = _score(t, D)
            if low >= need:
                if side > 0:
                    z_hi = _shrink(z_hi, z_lo, z, z_need)
                v_lo, t_lo, z_lo, p_lo, side = v, t, z, p_max, 1
            elif high < need:
                if side < 0:
                    z_lo = _shrink(z_lo, z_hi, z, z_need)
                v_hi, t_hi, z_hi, p_hi, side = v, t, z, p_min, -1
            else:  # undecided: each end's certificate lies between it and v
                v_lo, t_lo, z_lo, p_lo = self._edge(need, z_need, (v_lo, t_lo, z_lo, p_lo), v, _score(low, D), True)
                v_hi, t_hi, z_hi, p_hi = self._edge(need, z_need, (v_hi, t_hi, z_hi, p_hi), v, _score(high, D), False)
                break
        if p_lo is None:
            p_lo = self._run_pointers(v_lo, self.run_max)
        if p_hi is None:
            p_hi = self._run_pointers(v_hi, self.run_min)
        return (v_lo, t_lo, z_lo, p_lo), (v_hi, t_hi, z_hi, p_hi)

    def _edge(self, need: int, z_need: float, end: tuple, v_in: int, z_in: float, lower: bool) -> tuple:
        """Move a certified end towards the undecided probe v_in, whose run
        bound on that side scores z_in, by QUANTILE_EDGE_PROBES probes of
        regula falsi on that bound alone (L for the lower end, U for the
        upper one)."""
        v_end, t_end, z_end, p_end = end
        keys, others = (self.run_min, self.run_max) if lower else (self.run_max, self.run_min)
        for _ in range(QUANTILE_EDGE_PROBES):
            lo, z0, hi, z1 = (v_end, z_end, v_in, z_in) if lower else (v_in, z_in, v_end, z_end)
            if hi - lo < 2:
                break
            v = _log_pivot(lo, hi, _interpolate(z0, z_need, z1))
            bound = self._run_tail(self._run_pointers(v, keys))
            if (bound >= need) == lower:
                p_end = self._run_pointers(v, others)
                t_end = (bound + self._run_tail(p_end)) // 2
                v_end, z_end = v, _score(t_end, self.D)
            else:
                v_in, z_in = v, _score(bound, self.D)
        return v_end, t_end, z_end, p_end

    def largest_atom(self, need: int) -> int:
        self.row_evaluations = 0
        for walk, t_end in self.walks:
            if walk[0][1] >= need > t_end:
                return next(v for v, t in reversed(walk) if t >= need)
        ka, wa, kb, top, D = self.ka, self.wa, self.kb, self.top, self.D
        h = next(k for k, point in enumerate(self.known) if point[1] < need)
        lo, hi = self._certify(need, *self.known[h - 1 : h + 1])
        (v_lo, t_lo, z_lo, p_lo), (v_hi, t_hi, z_hi, p_hi) = lo, hi
        frozen = 0
        ak, aw, alo, ahi = [], [], [], []
        for s, e, w, p, q in zip(self.starts, self.starts[1:], self.run_mass, p_lo, p_hi):
            if p < q:
                ak += ka[s:e]
                aw += wa[s:e]
                alo += [p] * (e - s)
                ahi += [q] * (e - s)
            else:  # every row of the run keeps the pointer p
                frozen += w * top[p]
        z_need = _score(2 * need - 1, 2 * D)
        side = stalls = 0
        pairs = sum(ahi) - sum(alo)
        while pairs > QUANTILE_ENUMERATION_PAIRS and v_hi - v_lo > 1:
            if stalls > 5:  # six steps running left over half the pairs: bisect
                lam = 0.5
            else:
                if z_lo < z_need < z_hi:
                    lam = (z_need - z_lo) / (z_hi - z_lo)
                else:  # the scores cannot tell the target from an end: interpolate T
                    lam = (2 * (t_lo - need) + 1) / (2 * (t_lo - t_hi))
                if side > 0:
                    lam *= 1 + QUANTILE_OVERSHOOT
                elif side < 0:
                    lam = 1 - (1 - lam) * (1 + QUANTILE_OVERSHOOT)
            v = _log_pivot(v_lo, v_hi, lam)
            self.row_evaluations += len(ak)
            ptr = _row_pointers(kb, v, ak, alo, ahi)
            t = frozen + sum(map(mul, aw, map(top.__getitem__, ptr)))
            z = _score(t, D)
            insort(self.known, (v, t))
            if t >= need:
                if side > 0:
                    z_hi = _shrink(z_hi, z_lo, z, z_need)
                v_lo, t_lo, z_lo, alo, side = v, t, z, ptr, 1
            else:
                if side < 0:
                    z_lo = _shrink(z_lo, z_hi, z, z_need)
                v_hi, t_hi, z_hi, ahi, side = v, t, z, ptr, -1
            # Drop the frozen rows once they are more than an eighth.
            live = list(map(lt, alo, ahi))
            if live.count(False) * 8 > len(live):
                dead = list(map(not_, live))
                frozen += sum(map(mul, compress(aw, dead), map(top.__getitem__, compress(alo, dead))))
                ak, aw, alo, ahi = (list(compress(x, live)) for x in (ak, aw, alo, ahi))
            before, pairs = pairs, sum(ahi) - sum(alo)
            stalls = stalls + 1 if 2 * pairs > before else 0
        wb = self.wb
        mass: dict = {}
        for k, w, a, b in zip(ak, aw, alo, ahi):
            for j in range(a, b):
                x = k * kb[j]
                mass[x] = mass.get(x, 0) + w * wb[j]
        # With bounds in place of pointers the walk starts below lo or ends
        # past hi; only the atoms in [lo, hi) get their exact tails.
        t = frozen + sum(map(mul, aw, map(top.__getitem__, alo)))
        walk = []
        for x in sorted(mass):
            if x >= v_hi:
                break
            if x >= v_lo:
                walk.append((x, t))
            t -= mass[x]
        self.walks.append((walk, t))
        return next(v for v, t in reversed(walk) if t >= need)


def tilde_quantiles(seq: ContractionSequence, level: int, queries) -> list[Fraction]:
    """Exact component quantiles for several (t, side) queries at one level.

    side "largest" asks for sup{L : P(X >= L) >= t}, side "smallest" for
    inf{L : P(X <= L) >= t}.  Both are atoms of the law: with D the mass
    denominator, the largest atom whose tail D * P(X >= v) reaches
    ceil(t D), respectively exceeds floor((1 - t) D).  One split-half build
    serves every query at every level and for every rule, and each answer
    is a Fraction.
    """
    queries = [(Fraction(t), side) for t, side in queries]
    for t, side in queries:
        if not 0 < t < 1:
            raise PreconditionError("t must lie in (0, 1)")
        if side not in ("largest", "smallest"):
            raise PreconditionError(f"unknown side {side!r}")
    if level < 0:
        raise PreconditionError("level must be nonnegative")
    tail = _ProductTail(seq, level)
    return [tail.quantile(t, side) for t, side in queries]
