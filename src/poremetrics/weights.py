"""Mean values of dist(.,E)^theta over intervals and the Muckenhoupt products built from them.

Means are closed forms over the gap components of the window: the distance
profile inside a gap is the minimum of two linear ramps, so each piece
integrates to a difference of antiderivatives F(u) = u^(theta+1)/(theta+1).
Every mean over a window is built from one answer of the set: its closed
pieces in the window (``piece_runs``) and the distances from the window's
two ends.  It is taken in the window's relative frame, where the window is
[0, 1) and a piece end is an integer over its run's denominator
(``pores._scaled_runs``), so no mean carries the window side, and a scan
row whose window repeats the last one's gap walk reuses its row
(``ApScan``).  On the envelope windows of a generated set the means need no
gaps at all: they are the closed form 2^-theta E[X_m^theta]/(theta+1) in the
moments of the gap-length variable, taken in the unit 1/2, which drops the
factor 2^-theta from every product of means over one window.

Every mean, product and quotient is a ``Bracket``: exact when its ends are
one Fraction, else float ends widened outward, with ``math.inf`` above a
mean that diverges.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from itertools import chain, repeat
from fractions import Fraction
from operator import mul, sub

from .dyadic import Cube
from .errors import PreconditionError
from .pores import _scaled_runs, cell_pore_profiles
from .porestats import moment_stream
from .rationals import Bracket, power_pair, rational_pow
from .setmodels import Generated, Prefixes, SetOracle

_BASE_SLACK = 1e-15
_ZERO = Fraction(0)


class ApQuery:
    """Exponent alpha (weight dist^-alpha) and integrability index p."""

    __slots__ = ("alpha", "p")

    def __init__(self, alpha, p):
        self.alpha, self.p = Fraction(alpha), Fraction(p)
        if self.p < 1:
            raise PreconditionError("p must be at least 1")


def _pow_any(v, e: Fraction):
    """v**e over nonnegative v of either numeric kind: a Fraction when v is
    one and the power is rational, else a float (math.inf for 0 to a
    negative power)."""
    if isinstance(v, Fraction):
        if v == 0 and e < 0:
            return math.inf
        r = rational_pow(v, e)
        return float(v) ** float(e) if r is None else r
    if v == math.inf:
        return math.inf if e > 0 else 0.0
    if v == 0.0 and e < 0:
        return math.inf
    return float(v) ** float(e)


def _assemble(lo, hi, n_terms) -> Bracket:
    """The float bracket [lo, hi], widened outward by a slack that grows
    with the number of terms behind it."""
    slack = _BASE_SLACK * max(8, n_terms)
    lo_f = float(lo)
    hi_f = float(hi)
    if lo_f != math.inf:
        lo_f = lo_f - abs(lo_f) * slack
    if hi_f != math.inf:
        hi_f = hi_f + abs(hi_f) * slack
    return Bracket(lo_f, hi_f)


def _sum_terms(terms):
    """(total, exact, count) of (value, is_exact) terms: summed exactly while
    every term is exact, as a float from the first inexact term on.  Stops
    drawing terms at the first infinite one, and the total is then math.inf."""
    total = _ZERO
    exact = True
    n = 0
    for val, is_exact in terms:
        n += 1
        if val == math.inf:
            return math.inf, False, n
        if is_exact and exact:
            total += val
        else:
            if exact:
                total = float(total)
                exact = False
            total += float(val)
    return total, exact, n


def _antiderivative(n: int, d: int, e_num: int, e_den: int):
    """F(u) = u^e/e for u = n/d > 0 or u = 0 < e, with e = theta + 1 =
    e_num/e_den in lowest terms: an integer pair (numerator, denominator)
    when the power is rational, else a float; log(u) when e = 0.

    The power is rational when the reduced n/d has integer e_den-th roots.
    Every float comes from the correctly rounded quotient n/d, which is
    what a Fraction converts to, so a float F(u) depends on u alone.  A
    float past the float range raises OverflowError, and so does a log or
    a negative power of a quotient that rounds to 0."""
    if e_num == 0:
        return math.log(_positive_quotient(n, d))
    g = math.gcd(n, d)
    n, d = n // g, d // g
    r = power_pair(n, d, e_num, e_den)
    if r is None:
        e = e_num / e_den
        return (_positive_quotient(n, d) if e < 0 else n / d) ** e / e
    # (n/d)^e * e_den / e_num; the denominator is negative when e is.
    return r[0] * e_den, r[1] * e_num


def _positive_quotient(n: int, d: int) -> float:
    """n/d > 0 as a float, raising OverflowError where it lies past the
    float range or rounds to 0."""
    u = n / d
    if not u:
        raise OverflowError("quotient below the float range")
    return u


def _float(v) -> float:
    return v[0] / v[1] if type(v) is tuple else v


def profile_integral(h: int, d_left: int, d_right: int, den: int, theta: Fraction):
    """Integral of min(d_left + (x-a), d_right + (b-x))^theta over [a, b],
    b - a = h, with h, d_left and d_right integer numerators over one
    denominator den > 0.

    Returns (value, exact): an exact Fraction when every power is rational,
    else a float; math.inf when theta <= -1 and the profile touches zero at
    an endpoint.
    """
    if h <= 0:
        raise PreconditionError("profile needs h > 0")
    e_num, e_den = theta.numerator + theta.denominator, theta.denominator
    if e_num <= 0 and min(d_left, d_right) == 0:
        return math.inf, False
    if abs(d_left - d_right) > h:
        # The ramp from the nearer end governs throughout.
        d = min(d_left, d_right)
        hi_v = _antiderivative(d + h, den, e_num, e_den)
        lo_v = _antiderivative(d, den, e_num, e_den)
        if type(hi_v) is tuple and type(lo_v) is tuple:
            (hn, hd), (ln, ld) = hi_v, lo_v
            return Fraction(hn * ld - ln * hd, hd * ld), True
        return _float(hi_v) - _float(lo_v), False
    m_v = _antiderivative(h + d_left + d_right, 2 * den, e_num, e_den)
    a_v = _antiderivative(d_left, den, e_num, e_den)
    b_v = _antiderivative(d_right, den, e_num, e_den)
    if type(m_v) is tuple and type(a_v) is tuple and type(b_v) is tuple:
        (mn, md), (an, ad), (bn, bd) = m_v, a_v, b_v
        return Fraction(2 * mn * ad * bd - (an * bd + bn * ad) * md, md * ad * bd), True
    return 2 * _float(m_v) - _float(a_v) - _float(b_v), False


def _profile(*pairs) -> tuple:
    """(n_1, n_2, n_3, den): three (numerator, denominator) pairs over their
    lcm, in lowest terms, so that equal profiles are equal tuples."""
    den = math.lcm(*(d for _, d in pairs))
    profile = (*(n * (den // d) for n, d in pairs), den)
    g = math.gcd(*profile)
    return tuple(k // g for k in profile)


class _ScaledMean(namedtuple("_ScaledMean", "norm n_terms")):
    """A mean of dist^theta over a window in a length unit u shared by every
    mean over the window: the cube mean is u**theta * norm, with u the window
    side on the gap walk (the mean over the relative frame) and 1/2 in the
    closed form on an envelope.  The A_p product and the A_1 quotient cancel
    the powers of u, so u is never formed.  ``n_terms`` counts the float
    terms behind an inexact norm, which set how far it is widened.
    """

    __slots__ = ()

    def to_mean_value(self, base: Fraction, e: Fraction) -> Bracket:
        """The norm times base**e: the cube mean for base = u and e = theta,
        the A_1 quotient for base = the peak in the unit u and e = -theta."""
        scale, norm = _pow_any(base, e), self.norm
        if norm.exact and isinstance(scale, Fraction):
            return Bracket(scale * norm.lo, scale * norm.lo)
        hi = float(scale) * float(norm.hi) if norm.hi != math.inf else math.inf
        return _assemble(float(scale) * float(norm.lo), hi, self.n_terms + 2)


class _Window(namedtuple("_Window", "cube pieces d_lo d_hi")):
    """A window and the set's one answer about it: the closed pieces that
    meet it (``piece_runs``; none when it misses the set) and the distances
    from its two ends.  An end inside a piece is at distance 0, so only an
    end in a gap is queried, once."""

    __slots__ = ()

    @classmethod
    def read(cls, oracle: SetOracle, q0: Cube) -> "_Window":
        lo, hi = q0.as_interval()
        pieces = oracle.piece_runs(lo, hi)
        d_lo = d_hi = _ZERO
        # lo lies in the first piece when l/b <= lo, hi in the last when h/b >= hi.
        if not pieces or pieces[0][1][0] * lo.denominator > lo.numerator * pieces[0][0]:
            d_lo = oracle.distance(lo)
        if not pieces or pieces[-1][2][-1] * hi.denominator < hi.numerator * pieces[-1][0]:
            d_hi = oracle.distance(hi)
        return cls(q0, pieces, d_lo, d_hi)


class _Gaps(namedtuple("_Gaps", "ends distinct counts order inside")):
    """The gap components of a window, walked once for every mean over it.

    A component endpoint other than a window end is a point of the closed
    set, where the distance is exactly 0.  The first component reaches back
    to the window's lower end and the last one to its upper end; where they
    do not, that end lies in the set and its distance is 0 as well.  So only
    the two window ends need a distance, and every component between the
    end ones is determined by its length alone.

    Relative to the window, ``ends`` holds the integer profiles (h, d_left,
    d_right, den) of the first and the last component, ``distinct`` the
    distinct interior lengths as coprime pairs (h, den), ``counts`` how many
    interior components have each, ``order`` the index into ``distinct`` of
    each interior component in window order, and ``inside`` the set's measure.
    """

    __slots__ = ()

    @classmethod
    def of(cls, window: _Window) -> "_Gaps":
        """Walk the window's piece runs in the frame of ``_scaled_runs`` at
        generation 0, where an end a/b of a run lies at (a scale - off)/div,
        ``scale`` being the run's ``mul``.

        The gaps inside a run are integer differences over its div; a gap
        between a window end and a run, or between two runs, is taken over
        the lcm of its two ends' denominators only, so no denominator grows
        with the number of runs.  Each distinct gap is reduced by one gcd."""
        _, hi = window.cube.as_interval()
        b = hi.denominator
        # hi, at 1, closes the walk as a run of one point over b.
        *pieces, closing = _scaled_runs([*window.pieces, (b, (hi.numerator,), (hi.numerator,))], window.cube, 0)
        # That run puts a length u/v = (u b / v) / b at u b scale / (v div).
        *_, div, scale, _, _, _ = closing
        d_lo, d_hi = ((d.numerator * b * scale, d.denominator * div) for d in (window.d_lo, window.d_hi))
        gaps, inside = [], _ZERO
        # The cursor n/d is where the next gap starts.
        n, d = 0, 1
        for *_, div, scale, off, lefts, rights in [*pieces, closing]:
            m = math.lcm(d, div)
            h = (lefts[0] * scale - off) * (m // div) - n * (m // d)
            if h > 0:
                gaps.append((h, m))
            gaps += zip(map(mul, map(sub, lefts[1:], rights), repeat(scale)), repeat(div))
            if rights is not lefts:  # intervals, clamped to the window
                covered = sum(min(r * scale - off, div) - max(l * scale - off, 0) for l, r in zip(lefts, rights))
                inside += Fraction(covered, div)
            n, d = rights[-1] * scale - off, div
        if len(gaps) > 1:
            ends = (_profile(gaps[0], d_lo, (0, 1)), _profile(gaps[-1], (0, 1), d_hi))
        else:
            ends = tuple(_profile(pair, d_lo, d_hi) for pair in gaps)
        interior = gaps[1:-1]
        # Equal lengths may come as different pairs; they share one index.
        index, distinct = {}, {}
        for h, m in dict.fromkeys(interior):
            g = math.gcd(h, m)
            index[h, m] = distinct.setdefault((h // g, m // g), len(distinct))
        order = tuple(map(index.__getitem__, interior))
        counts = tuple(Counter(order).values())  # the indices first occur in increasing order
        return cls(ends, tuple(distinct), counts, order, inside)

    def peak(self) -> Fraction:
        """Maximum of the relative distance profile: half the longest
        interior gap, or the peak of an end component."""
        peaks = [Fraction(h, 2 * den) for h, den in self.distinct]
        for h, d_l, d_r, den in self.ends:
            top = h + d_l + d_r if abs(d_l - d_r) <= h else 2 * (min(d_l, d_r) + h)
            peaks.append(Fraction(top, 2 * den))
        return max(peaks)

    def mean(self, theta: Fraction) -> _ScaledMean:
        """The relative mean.  With every term exact it is the sum of
        count * integral per distinct length; otherwise it is summed over the
        components in window order, so that the float sum is the same as one
        integral per component."""
        n = len(self.ends) + len(self.order)
        interior = [profile_integral(h, 0, 0, den, theta) for h, den in self.distinct]
        ends = [profile_integral(*end, theta) for end in self.ends]
        if all(is_exact for _, is_exact in chain(interior, ends)):
            total = sum((val for val, _ in ends), _ZERO)
            total = sum((val * m for (val, _), m in zip(interior, self.counts)), total)
        else:
            terms = chain(ends[:1], (interior[k] for k in self.order), ends[1:])
            total, _, _ = _sum_terms(terms)
        # Distance vanishes on the part of the window inside the set: it adds
        # nothing for theta > 0, exactly its relative measure for theta = 0,
        # and diverges for theta < 0.
        if self.inside:
            if theta == 0:
                total += self.inside
            elif theta < 0:
                return _ScaledMean(Bracket(total, math.inf), n + 1)
        return _ScaledMean(Bracket(total, total), n)


def _envelope_means(oracle: SetOracle, q0: Cube, thetas) -> list[_ScaledMean] | None:
    """Normalized means over an envelope window Q_m of a generated set, in
    closed form, or None when the window is no such envelope or an exponent
    is at most -1.

    Inside Q_m every stage of level >= m equals stage m, and both ends of
    Q_m are set points, so each gap h of the stage contributes
    2 (h/2)^(theta+1)/(theta+1) and the mean is 2^-theta E[X_m^theta]/(theta+1),
    with X_m the gap-length variable of ``porestats``: the norm
    E[X_m^theta]/(theta+1) in the unit 1/2.  One pass of ``moment_stream``
    per exponent, kept on the oracle and drawn as far as the largest m asked
    for, serves every envelope of the set; its exact entries are integer
    pairs, and only the one read here becomes a Fraction.
    """
    if not isinstance(oracle, Generated) or min(thetas) <= -1:
        return None
    m = oracle.envelope_level(q0)
    if m is None:
        return None
    out = []
    for theta in thetas:
        moments = oracle.moments.get(theta)
        if moments is None:
            moments = oracle.moments[theta] = Prefixes(moment_stream(oracle.seq, theta))
        moment = moments.upto(m)[m]
        norm = Fraction(*moment) / (theta + 1) if type(moment) is tuple else moment / float(theta + 1)
        # The terms behind a float norm: m stage factors and the division.
        out.append(_ScaledMean(Bracket(norm, norm), m + 2))
    return out


def _means(window: _Window, thetas, max_gen: int, gaps: _Gaps) -> list[_ScaledMean]:
    """The relative means over a window, one per exponent, from the window's
    one gap walk ``gaps``.

    For theta <= -1 on a window meeting the set the mean diverges and the
    growing lower bound over the enumerated pores is reported instead.
    """
    return [
        _divergent_partial(window, theta, max_gen) if theta <= -1 and window.pieces else gaps.mean(theta)
        for theta in thetas
    ]


def _divergent_partial(window: _Window, theta, max_gen) -> _ScaledMean:
    """theta <= -1 on a window meeting the set: the mean diverges; report the
    exact integral over the pores enumerated so far as a growing lower bound.

    The pores come from the integer cells of the set's pieces in the window,
    generation by generation and left to right, so the float sum and its
    term count are fixed by the window alone."""
    pores = cell_pore_profiles(window.cube, window.pieces, window.d_lo, window.d_hi, max_gen)
    total, _, n = _sum_terms(profile_integral(*pore, theta) for pore in pores)
    return _ScaledMean(Bracket(total, math.inf), max(n, 1))


# case: "I" far cube, "II" near disjoint cube, "III" cube meeting the set;
# path: one of MEAN_PATHS, how the two means were found.
ApResult = namedtuple("ApResult", "product case path")


# How ap_product found its means: the envelope closed form, the gap walk,
# the far-cube bracket (no means), or a divergent factor's pore enumeration.
MEAN_PATHS = ("closed_form", "gap_walk", "far_cube", "divergent")


def _combine_product(sm1: _ScaledMean, sm2: _ScaledMean, p: Fraction) -> Bracket:
    """(u^-a m1) * (u^(a/(p-1)) m2)^(p-1): the powers of the shared unit u cancel."""
    n1, e = sm1.norm, p - 1
    lo2, hi2 = _pow_any(sm2.norm.lo, e), _pow_any(sm2.norm.hi, e)
    if n1.exact and sm2.norm.exact and isinstance(lo2, Fraction):
        return Bracket(n1.lo * lo2, n1.lo * lo2)
    lo = float(n1.lo) * float(lo2)
    hi = math.inf if (n1.hi == math.inf or hi2 == math.inf) else float(n1.hi) * float(hi2)
    return _assemble(lo, hi, sm1.n_terms + sm2.n_terms)


class ApScan:
    """One scan of ``ap_product`` (one set, query and max_gen): the last key
    kept, its row, and how many rows were taken from it."""

    __slots__ = ("key", "result", "reused")

    def __init__(self):
        self.key = self.result = None
        self.reused = 0


def ap_product(oracle: SetOracle, q0: Cube, query: ApQuery, max_gen: int = 40, scan: ApScan | None = None) -> ApResult:
    """Bracket of the two-factor Muckenhoupt product for w = dist^-alpha.

    Envelope windows of a generated set take the closed form first (they
    meet the set, case III, and need no points).  Far cubes (gap at least
    twice the diameter) short-circuit to the bracket [1, 4^|alpha|].
    Elsewhere both means are taken in the window's relative frame, so the
    product is the same for the set and the window mapped together by any
    x -> lam x + tau with lam > 0.

    With a ``scan``, a window keyed (meets, gap walk) like the last one kept
    returns its row, bit for bit: integrals reduce n/d before any power or
    float.  A divergent window with intervals is neither reused nor kept: its
    pores read interval ends that the gap walk does not fix.
    """
    if query.p <= 1:
        raise PreconditionError("ap_product needs p > 1; use a1_quotient for p = 1")
    alpha, p = query.alpha, query.p
    thetas = (-alpha, alpha / (p - 1))
    sms = _envelope_means(oracle, q0, thetas)
    if sms is not None:
        result = ApResult(_combine_product(*sms, p), "III", "closed_form")
        _assert_holder_floor(result.product)
        return result
    window = _Window.read(oracle, q0)
    meets = bool(window.pieces)
    if not meets:
        # The set lies outside the window, so its nearest point to the window
        # is nearest to one of the window's ends.
        if min(window.d_lo, window.d_hi) >= 2 * q0.side:
            # The weight varies by a factor of at most (3/2)^|alpha| on the cube,
            # whichever the sign of alpha.
            hi = _pow_any(Fraction(4), abs(alpha))
            if not isinstance(hi, Fraction):
                hi *= 1 + 1e-14
            result = ApResult(Bracket(Fraction(1), hi), "I", "far_cube")
            _assert_holder_floor(result.product)
            return result
    gaps = _Gaps.of(window)
    divergent = meets and min(thetas) <= -1
    reusable = scan is not None and not (divergent and any(r is not l for _, l, r in window.pieces))
    if reusable and scan.key == (meets, gaps):
        scan.reused += 1
        return scan.result
    try:
        sm1, sm2 = _means(window, thetas, max_gen, gaps)
        product = _combine_product(sm1, sm2, p)
    except OverflowError:
        raise PreconditionError(
            f"the partial product to max_gen {max_gen} has a term outside the float range"
        ) from None
    result = ApResult(product, "III" if meets else "II", "divergent" if divergent else "gap_walk")
    _assert_holder_floor(result.product)
    if reusable:
        scan.key, scan.result = (meets, gaps), result
    return result


def _assert_holder_floor(product: Bracket):
    # Jensen: the true product is at least 1, so any sound bracket reaches 1.
    hi = product.hi
    if not (hi == math.inf or hi >= 1 - 1e-11):
        raise AssertionError(f"A_p product bracket upper end {hi} fell below 1")


def a1_quotient(oracle: SetOracle, q0: Cube, alpha, max_gen: int = 40) -> Bracket:
    """Bracket of (mean of dist^-alpha) / (essential infimum of dist^-alpha).

    The essential infimum comes from the farthest point of the window from
    the set, the peak of the piecewise-linear distance profile.  On an
    envelope window of a generated set the peak is 1/2, half the unit gap
    that survives every stage and 1 in the closed form's unit, so the
    quotient is E[X_m^-alpha]/(1-alpha).
    """
    alpha = Fraction(alpha)
    if alpha <= 0:
        raise PreconditionError("a1_quotient needs alpha > 0")
    closed = _envelope_means(oracle, q0, (-alpha,))
    if closed is not None:
        (sm,) = closed
        return sm.to_mean_value(Fraction(1), alpha)
    window = _Window.read(oracle, q0)
    gaps = _Gaps.of(window)
    if not gaps.ends:
        raise PreconditionError("window is covered by the set")
    (sm,) = _means(window, (-alpha,), max_gen, gaps)
    return sm.to_mean_value(gaps.peak(), alpha)
