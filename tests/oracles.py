"""Independent oracles used to freeze expected values.

Everything here deliberately avoids the library's own algorithms: pore
families come from testing the defining condition cube by cube (on every
dyadic subcube, or on the children of every cube holding a point, which
scales to any depth), and pore cubes and their profiles from a
breadth-first search that asks ``meets`` of both halves of every cube
meeting the set, generation by generation, left to right; a union of
intervals prunes that search with a scan of its intervals.  ``meets`` and
the Fraction ``components`` of a window are read off the set's one window
query, ``piece_runs``, piece by piece.  Binomial coefficients come from
Pascal's triangle and binomial rows from Fraction powers, closed-form
moments are rebuilt from stage 1 at each level from Fraction stage factors
read off the rule, the moments of a law are
summed atom by atom over its Fraction view, Markov bounds for the component
quantiles come from the first and inverse-first moments, the normal gap
compares the binomial CDF from Pascal's triangle with the normal CDF at
every jump, component quantiles come from cumulative walks over Fraction
laws and from bisection over Fraction half laws, binomial checks from
Fraction comparison atom by atom, and membership checks are linear scans
over point lists.  Queries on a union of closed intervals scan every
interval as given, unsorted and unmerged.
The cell of a point at a generation is one Fraction floor.
The 1-D means evaluate the Fraction profile integral below once per
component, with every endpoint distance queried.
Envelope means in closed form are evaluated in 60-digit decimal arithmetic.
Fraction lengths of a pore family are found by Fraction walks over its
masses, with the threshold masses summed again after the walk; those of gap
components by a Fraction walk over the component lengths.
The set-spec dictionaries of point sets and the lattice, which no command
writes, are written here as the reference for the spec loader.
"""

import decimal
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from poremetrics.dyadic import Cube
from poremetrics.errors import InsufficientDepthError, PreconditionError
from poremetrics.pores import Side
from poremetrics.porestats import moment_stream
from poremetrics.rationals import Bracket, format_rational, rational_pow
from poremetrics.setmodels import IntegerLattice


def spec_dict(oracle):
    """The set-spec dictionary of the lattice or of a ``FinitePoints`` set,
    every point a ``p/q`` string."""
    if isinstance(oracle, IntegerLattice):
        return {"type": "lattice"}
    return {"type": "points", "points": [format_rational(p) for p in oracle.points]}


def points_meet(points, lo, hi):
    return any(lo <= p < hi for p in points)


def brute_force_pores(points, window_lo, window_hi, max_gen):
    """Every dyadic pore of [window_lo, window_hi) w.r.t. a finite point list,
    found by testing the defining condition on each cube independently."""
    window_lo, window_hi = Fraction(window_lo), Fraction(window_hi)
    side = window_hi - window_lo
    pores = []
    for j in range(1, max_gen + 1):
        step = side / 2**j
        parent_step = side / 2 ** (j - 1)
        for i in range(2**j):
            lo = window_lo + i * step
            hi = lo + step
            plo = window_lo + (i // 2) * parent_step
            phi = plo + parent_step
            if not points_meet(points, lo, hi) and points_meet(points, plo, phi):
                pores.append((lo, hi))
    return pores


def pore_histogram(points, window_lo, window_hi, max_gen):
    """Generation -> count of the pores brute_force_pores finds, at any depth.

    The same defining condition, tested only on the two children of each
    cube that holds a point (every other cube has a parent missing the set).
    A point's cube at generation j has index floor(2**j (p - lo)/side), a
    Fraction floor taken generation by generation.
    """
    lo = Fraction(window_lo)
    side = Fraction(window_hi) - lo
    inside = [Fraction(p) for p in points if lo <= p < window_hi]

    def cells(j):
        return {math.floor((p - lo) * 2**j / side) for p in inside}

    counts = {}
    for j in range(1, max_gen + 1):
        occupied = cells(j)
        pores = sum(
            1 for i in cells(j - 1) for child in (2 * i, 2 * i + 1)
            if child not in occupied
        )
        if pores:
            counts[j] = pores
    return counts


def cell_of(p, q0, max_gen):
    """The generation-``max_gen`` cell floor(2**J (p - lo)/side) of a point
    p relative to the window ``q0``, a Fraction floor, not clamped to the
    window."""
    lo, _ = q0.as_interval()
    return math.floor((Fraction(p) - lo) * 2**max_gen / q0.side)


def meets(oracle, lo, hi):
    """Does the set meet the half-open window [lo, hi)?"""
    return bool(oracle.piece_runs(Fraction(lo), Fraction(hi)))


@dataclass(frozen=True)
class Component:
    """Maximal open interval of a window's interior disjoint from the set."""

    left: Fraction
    right: Fraction

    def __post_init__(self):
        if self.right <= self.left:
            raise PreconditionError("component needs right > left")

    @property
    def length(self) -> Fraction:
        return self.right - self.left


def components(oracle, lo, hi):
    """The gaps of [lo, hi) between the set's pieces in it, as Fraction
    ``Component``s in window order; a piece reaching back to ``lo`` leaves no
    gap before it."""
    lo, hi = Fraction(lo), Fraction(hi)
    if hi <= lo:
        raise PreconditionError("window needs hi > lo")
    out, cursor = [], lo
    for b, lefts, rights in oracle.piece_runs(lo, hi):
        for l, h in zip(lefts, rights):
            if Fraction(l, b) > cursor:
                out.append(Component(cursor, Fraction(l, b)))
            cursor = Fraction(h, b)
    if cursor < hi:
        out.append(Component(cursor, hi))
    return out


def children(cube):
    """The two halves of ``cube`` one generation down, left one first, built
    with ``Cube.interval``."""
    lo, hi = cube.as_interval()
    mid = (lo + hi) / 2
    return [Cube.interval(lo, mid), Cube.interval(mid, hi)]


def bfs_pore_cubes(oracle, q0, max_gen, covers=None):
    """The pore cubes of ``q0`` generation by generation, left to right, by a
    breadth-first search over the cubes meeting the set: a child of a
    frontier cube is a pore when ``meets`` says it misses the
    set, and joins the next frontier otherwise.  ``covers(lo, hi)``, when
    given, says whether the set contains [lo, hi]; a child it covers has no
    pores below it and leaves the frontier, which keeps the search to the
    boundary cubes of a union of intervals."""
    if max_gen < 1:
        raise PreconditionError("max_gen must be at least 1")
    if not meets(oracle, *q0.as_interval()):
        raise PreconditionError("window does not meet the set; choose a window that meets the set")
    frontier = [q0]
    for _ in range(max_gen):
        nxt = []
        for cube in frontier:
            for child in children(cube):
                if not meets(oracle, *child.as_interval()):
                    yield child
                elif covers is None or not covers(*child.as_interval()):
                    nxt.append(child)
        frontier = nxt


def bfs_counts(oracle, q0, max_gen, covers=None):
    """Generation -> count of the pores of ``bfs_pore_cubes``."""
    counts = {}
    for pore in bfs_pore_cubes(oracle, q0, max_gen, covers):
        # The sides halve once per generation: q0.side / pore.side is 2**g.
        g = (q0.side / pore.side).numerator.bit_length() - 1
        counts[g] = counts.get(g, 0) + 1
    return counts


def bfs_profiles(oracle, q0, max_gen, covers=None, distance=None):
    """(length, distance at the left end, distance at the right end) of each
    pore of ``bfs_pore_cubes`` in its order, relative to the window, as
    Fractions, with both end distances queried (of ``oracle`` unless a
    ``distance`` function is given)."""
    distance = distance or oracle.distance
    lo, hi = q0.as_interval()
    side = hi - lo
    out = []
    for pore in bfs_pore_cubes(oracle, q0, max_gen, covers):
        a, b = pore.as_interval()
        out.append(((b - a) / side, distance(a) / side, distance(b) / side))
    return out


def box_scan_distance(boxes, x):
    """Distance from x to the union of the closed intervals (lo, hi)."""
    return min(max(Fraction(0), lo - x, x - hi) for lo, hi in boxes)


def box_scan_meets(boxes, lo, hi):
    """Does the union meet the half-open window [lo, hi)?"""
    return any(a < hi and b >= lo for a, b in boxes)


def box_scan_covers(boxes, lo, hi):
    """Does the union contain [lo, hi]?  Membership changes only at interval
    ends, so the window's ends, the interval ends inside it and the midpoints
    between consecutive ones decide it."""
    cuts = sorted({lo, hi, *(e for box in boxes for e in box if lo < e < hi)})
    probes = cuts + [(a + b) / 2 for a, b in zip(cuts, cuts[1:])]
    return all(any(a <= x <= b for a, b in boxes) for x in probes)


def box_scan_components(boxes, lo, hi):
    """(left, right) of each gap of [lo, hi) minus the union: one sweep over
    the intervals that reach into the window, in order of their lower ends."""
    out = []
    cursor = lo
    for a, b in sorted((a, b) for a, b in boxes if a < hi and b > lo):
        if a > cursor:
            out.append((cursor, min(a, hi)))
        cursor = max(cursor, b)
        if cursor >= hi:
            break
    if cursor < hi:
        out.append((cursor, hi))
    return out


def box_scan_measure_zero(boxes):
    return all(lo == hi for lo, hi in boxes)


def pascal_row(n):
    row = [1]
    for _ in range(n):
        row = [1] + [a + b for a, b in zip(row, row[1:])] + [1]
    return row


def pascal_binomial_cdf(n, k, q):
    """P(Bin(n, q) <= k) via Pascal's triangle coefficients."""
    q = Fraction(q)
    row = pascal_row(n)
    k = min(k, n)
    if k < 0:
        return Fraction(0)
    return sum(Fraction(row[j]) * q**j * (1 - q) ** (n - j) for j in range(k + 1))


def fraction_binomial_pmf(n, k, q):
    """P(Bin(n, q) = k) as a product of Fraction powers."""
    q = Fraction(q)
    return Fraction(math.comb(n, k)) * q**k * (1 - q) ** (n - k)


def fraction_binomial_cdf_row(n, q):
    """P(Bin(n, q) <= k) for k = 0..n, a running Fraction sum of the pmf."""
    out = []
    total = Fraction(0)
    for k in range(n + 1):
        total += fraction_binomial_pmf(n, k, q)
        out.append(total)
    return out


def fraction_divergence_row(t, n):
    """(level, k_min, k_max, 2**(k_max - k_min)) of the quantile divergence
    scan at level n from the Fraction CDF row of Bin(n, 1/5): k_min is the
    first k with P(Y <= k) >= 4t, k_max the last k with P(Y >= k) >= t."""
    t = Fraction(t)
    row = fraction_binomial_cdf_row(n, Fraction(1, 5))
    k_min = next(k for k in range(n + 1) if row[k] >= 4 * t)
    k_max = max(k for k in range(n + 1) if 1 - (row[k - 1] if k else 0) >= t)
    return n, k_min, k_max, Fraction(2) ** (k_max - k_min)


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


def normal_cdf(z):
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def normal_gap(model):
    """Supremum over x of |P(Y <= x) - Phi((x - nq)/sqrt(nq(1-q)))|.

    The supremum is attained at a CDF jump, so both one-sided deviations at
    every integer point are examined.  P(Y <= k) is an integer prefix sum
    of Pascal's row times the powers of a and b - a for q = a/b, over b^n,
    and integer true division rounds it correctly.
    """
    n, q = model.n, model.q
    if n < 1:
        raise PreconditionError("normal approximation needs n >= 1")
    a, b = q.numerator, q.denominator
    den = b**n
    mu = n * float(q)
    sd = math.sqrt(n * float(q) * (1 - float(q)))
    gap = 0.0
    prev = 0.0
    total = 0
    for k, coeff in enumerate(pascal_row(n)):
        total += coeff * a**k * (b - a) ** (n - k)
        phi = normal_cdf((k - mu) / sd)
        here = total / den
        gap = max(gap, abs(here - phi), abs(prev - phi))
        prev = here
    return gap


def moment(law, theta):
    """Sum of length^theta weighted by mass over the Fraction view of a law;
    exact whenever every power is rational."""
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


@dataclass(frozen=True)
class MarkovBounds:
    upper_for_tilde_largest: Fraction | float
    lower_for_tilde_smallest: Fraction | float
    ratio_bound: Fraction | float


def markov_bounds_from_moments(ex, ex_inv, s, k, k_prime):
    """Quantile bounds from the first and inverse-first moments of a law.

    The largest-side component quantile at s is at most k E[X] for k > 1/s;
    the smallest-side quantile is at least k'/E[X^-1] for k' < s; their ratio
    is bounded by (k/k') E[X] E[X^-1].
    """
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


def stage_value(seq, n):
    """c_n, 1-indexed, as a Fraction from the rule itself (or from a test
    sequence's ``factors``): the reference for ``seq.stages()``."""
    if n < 1:
        raise ValueError("contraction index starts at 1")
    factors = getattr(seq, "factors", None)
    if factors is not None:
        return factors[n - 1]
    if seq.rule == "constant":
        return seq.c
    return 1 - Fraction(1, 2 * n)


def moment_prefixes(seq, level, theta):
    """The entries 0..level of ``porestats.moment_stream``: coprime integer
    pairs while exact, then floats."""
    if level < 0:
        raise PreconditionError("level must be nonnegative")
    return list(islice(moment_stream(seq, theta), level + 1))


def moment_number(entry):
    """An entry of ``porestats.moment_stream`` as a number: the Fraction of an
    integer pair (n, d), a float as it is."""
    return Fraction(*entry) if isinstance(entry, tuple) else entry


def closed_form_moment(seq, level, theta):
    """prod_{i <= level} (2 + c_i^(1+theta)) / (2 + c_i), rebuilt from stage 1.

    Exact until the first irrational power; from that stage on the product is
    a float, updated as out * float(num) / float(den).
    """
    theta = Fraction(theta)
    out = Fraction(1)
    exact = True
    for i in range(1, level + 1):
        c = stage_value(seq, i)
        p = rational_pow(c, 1 + theta)
        if p is None:
            p = float(c) ** float(1 + theta)
            if exact:
                out = float(out)
                exact = False
        factor_num = 2 + p
        factor_den = 2 + c
        if exact:
            out = out * factor_num / factor_den
        else:
            out = out * float(factor_num) / float(factor_den)
    return out


def to_decimal(x):
    """A rational as a Decimal in the current context."""
    x = Fraction(x)
    return decimal.Decimal(x.numerator) / decimal.Decimal(x.denominator)


def decimal_envelope_mean(seq, m, theta):
    """The envelope mean of dist^theta over Q_m in closed form at 60 digits:
    (1/2)^theta E[X_m^theta] / (theta + 1), with E[X_m^theta] the product of
    (2 + c_i^(1+theta)) / (2 + c_i), every power taken in decimal.  Returns
    (unit power, norm): the mean is their product, and products of means
    over one window cancel the unit powers."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        e = to_decimal(1 + Fraction(theta))
        moment = decimal.Decimal(1)
        for i in range(1, m + 1):
            c = to_decimal(stage_value(seq, i))
            moment = moment * (2 + c**e) / (2 + c)
        return to_decimal(Fraction(1, 2)) ** to_decimal(theta), moment / to_decimal(1 + Fraction(theta))


def component_length_multiset(points, window_lo, window_hi):
    """Lengths of the gaps of the open window minus the point list."""
    inner = sorted(p for p in points if window_lo < p < window_hi)
    cuts = [Fraction(window_lo)] + inner + [Fraction(window_hi)]
    return sorted(b - a for a, b in zip(cuts, cuts[1:]) if b > a)


def fraction_length_law(factors):
    """Gap-length law after contraction stages with the given factors c.

    Each stage keeps a length with weight 2/(2+c) and contracts it by c with
    weight c/(2+c), in plain Fraction arithmetic.
    """
    masses = {Fraction(1): Fraction(1)}
    for c in factors:
        c = Fraction(c)
        nxt = {}
        for x, m in masses.items():
            nxt[x] = nxt.get(x, Fraction(0)) + 2 * m / (2 + c)
            nxt[c * x] = nxt.get(c * x, Fraction(0)) + c * m / (2 + c)
        masses = nxt
    return masses


def fraction_generate(seq, level, with_reflection=False):
    """Generator stage ``level`` as the plain Fraction recursion: append the
    stage contracted by c_i, then an uncontracted copy, sharing endpoints."""
    pts = [Fraction(0), Fraction(1)]
    for i in range(1, level + 1):
        c = stage_value(seq, i)
        contracted = [pts[-1] + c * p for p in pts]
        shifted = [contracted[-1] + p for p in pts]
        pts = pts + contracted[1:] + shifted[1:]
    if with_reflection:
        pts = [-p for p in reversed(pts[1:])] + pts
    return tuple(pts), (pts[0], pts[-1])


def _fraction_antiderivative(u, theta):
    """(F(u), exact) with F(u) = u^(theta+1)/(theta+1), or log for theta = -1."""
    from poremetrics.rationals import rational_pow

    if theta == -1:
        if u == 0:
            return -math.inf, False
        return math.log(float(u)), False
    e = theta + 1
    r = rational_pow(u, e)
    if r is not None:
        return r / e, True
    return float(u) ** float(e) / float(e), False


def fraction_profile_integral(h, d_left, d_right, theta):
    """Integral of min(d_left + (x-a), d_right + (b-x))^theta over [a, b],
    b - a = h, in Fraction arithmetic: (value, exact), with the value an
    exact Fraction, a float from the first irrational power on, or math.inf
    when theta <= -1 and the profile touches zero at an endpoint."""
    h, d_left, d_right, theta = map(Fraction, (h, d_left, d_right, theta))
    if theta <= -1 and min(d_left, d_right) == 0:
        return math.inf, False
    if abs(d_left - d_right) > h:
        # The ramp from the nearer end governs throughout.
        d = min(d_left, d_right)
        hi_v, e1 = _fraction_antiderivative(d + h, theta)
        lo_v, e2 = _fraction_antiderivative(d, theta)
        if e1 and e2:
            return hi_v - lo_v, True
        return float(hi_v) - float(lo_v), False
    peak = (h + d_left + d_right) / 2
    m_v, e0 = _fraction_antiderivative(peak, theta)
    a_v, e1 = _fraction_antiderivative(d_left, theta)
    b_v, e2 = _fraction_antiderivative(d_right, theta)
    if e0 and e1 and e2:
        return 2 * m_v - a_v - b_v, True
    return 2 * float(m_v) - float(a_v) - float(b_v), False


def over_one_den(*values):
    """(n_1, ..., n_k, den): the Fractions as integer numerators over their
    least common denominator, the form ``profile_integral`` takes."""
    den = math.lcm(*(v.denominator for v in values))
    return (*(v.numerator * (den // v.denominator) for v in values), den)


def per_component_mean(oracle, q0, theta):
    """The relative 1-D mean of dist^theta for a window the set does not make
    divergent: a distance query at both endpoints of every gap component and
    one profile integral per component, summed in window order.  Returns the
    library's ``_ScaledMean`` so the same assembly turns it into a public
    result."""
    from poremetrics.weights import _ScaledMean

    theta = Fraction(theta)
    lo, hi = q0.as_interval()
    side = hi - lo
    comps = components(oracle, lo, hi)
    total, total_f, exact = Fraction(0), 0.0, True
    for comp in comps:
        d_l = oracle.distance(comp.left)
        d_r = oracle.distance(comp.right)
        val, is_exact = fraction_profile_integral(comp.length / side, d_l / side, d_r / side, theta)
        if val == math.inf:
            return _ScaledMean(Bracket(math.inf, math.inf), len(comps))
        if is_exact and exact:
            total += val
        else:
            if exact:
                total_f, exact = float(total), False
            total_f += float(val)
    covered = sum((c.length for c in comps), Fraction(0))
    if covered < side:
        if theta == 0:
            total += (side - covered) / side
        elif theta < 0:
            lo_norm = total if exact else total_f
            return _ScaledMean(Bracket(lo_norm, math.inf), len(comps) + 1)
    if exact:
        return _ScaledMean(Bracket(total, total), len(comps))
    return _ScaledMean(Bracket(total_f, total_f), len(comps))


def profile_peak(h, d_left, d_right):
    """Maximum of min(d_left + x, d_right + h - x) over [0, h]: at the
    crossing of the two ramps, clamped to the component."""
    x = min(max((d_right + h - d_left) / 2, 0), h)
    return min(d_left + x, d_right + h - x)


def per_component_peak(oracle, q0):
    """Largest value of dist(., E) over a 1-D window, from the two-ramp
    profile of every component with both endpoint distances queried."""
    lo, hi = q0.as_interval()
    return max(
        profile_peak(c.length, oracle.distance(c.left), oracle.distance(c.right))
        for c in components(oracle, lo, hi)
    )


def fraction_law_quantiles(masses, ts, largest):
    """Component quantiles of a Fraction law {atom: mass}, one per threshold
    in ts, by a cumulative walk: the first atom, from the top for the largest
    side and from the bottom for the smallest, at which the accumulated mass
    reaches t."""
    pending = sorted(set(ts))
    found = {}
    cum = Fraction(0)
    for x in sorted(masses, reverse=largest):
        cum += masses[x]
        while pending and pending[0] <= cum:
            found[pending.pop(0)] = x
    return [found[t] for t in ts]


def product_tails(half_a, half_b, x):
    """(P(X >= x), P(X > x)) for X = A * B with A, B independent Fraction
    laws, by bisecting x / a among B's sorted atoms for every atom a of A."""
    from bisect import bisect_left, bisect_right

    atoms = sorted(half_b)
    above = [Fraction(0)]
    for b in reversed(atoms):
        above.append(above[-1] + half_b[b])
    above.reverse()  # above[j] = P(B >= atoms[j])
    ge = gt = Fraction(0)
    for a, m in half_a.items():
        y = x / a
        ge += m * above[bisect_left(atoms, y)]
        gt += m * above[bisect_right(atoms, y)]
    return ge, gt


def fraction_binomial_check(law):
    """(ok, max_dev) of a constant-1/2 law against Bin(n, 1/5) in the
    exponent, comparing Fraction masses atom by atom over the union of the
    law's atoms and the dyadic atoms 2**-k, k = 0..n."""
    n = law.level
    expected = {Fraction(1, 2**k): fraction_binomial_pmf(n, k, Fraction(1, 5)) for k in range(n + 1)}
    max_dev = Fraction(0)
    for length in set(law.masses) | set(expected):
        dev = abs(law.masses.get(length, Fraction(0)) - expected.get(length, Fraction(0)))
        max_dev = max(max_dev, dev)
    return max_dev == 0, max_dev


def _pore_mass(family, gen):
    return family.counts[gen] * family.length_of(gen)


def _scan_largest(family, target):
    cum = Fraction(0)
    for gen in sorted(family.counts):
        cum += _pore_mass(family, gen)
        if cum >= target:
            return Bracket(family.length_of(gen), family.length_of(gen))
    # Threshold not reached among enumerated lengths.
    if family.tail_is_pore_mass:
        raise InsufficientDepthError(
            "largest-side threshold falls below the enumerated resolution",
            tail_mass=family.tail_mass,
        )
    if cum + family.tail_mass >= target:
        return Bracket(Fraction(0), family.length_of(family.max_generation))
    raise PreconditionError("fraction threshold exceeds the total pore mass")


def _scan_smallest(family, target):
    gens = sorted(family.counts, reverse=True)  # smallest length first

    def crossing(initial):
        cum = initial
        if cum >= target:
            return Fraction(-1)  # crossing already inside the tail
        for gen in gens:
            cum += _pore_mass(family, gen)
            if cum >= target:
                return family.length_of(gen)
        return None

    if family.tail_is_pore_mass:
        # All tail mass eventually materializes as pores strictly below the
        # enumerated resolution, so cumulative masses at enumerated lengths
        # are exact.
        if family.tail_mass >= target:
            raise InsufficientDepthError(
                "smallest-side threshold is met inside the unresolved tail",
                tail_mass=family.tail_mass,
            )
        hit = crossing(family.tail_mass)
        if hit is None:
            raise PreconditionError("fraction threshold exceeds the total pore mass")
        return Bracket(hit, hit)

    # Tail mass may or may not be pore mass: bracket the crossing.
    optimistic = crossing(family.tail_mass)
    pessimistic = crossing(Fraction(0))
    if optimistic is None:
        raise PreconditionError("fraction threshold exceeds the total pore mass")
    if optimistic == Fraction(-1):
        optimistic = Fraction(0)  # may lie below the resolution
    if pessimistic is None:
        raise InsufficientDepthError(
            "smallest-side threshold cannot be certified at this depth",
            tail_mass=family.tail_mass,
        )
    return Bracket(optimistic, pessimistic)


def _assert_threshold_bounds(family, query, value):
    # mass{l >= L(t)} >= t|Q0| and mass{l < L(t)} <= (1-t)|Q0|, and the duals.
    total = family.root.side
    at_least = sum(
        (_pore_mass(family, g) for g in family.counts if family.length_of(g) >= value),
        Fraction(0),
    )
    at_most = sum(
        (_pore_mass(family, g) for g in family.counts if family.length_of(g) <= value),
        Fraction(0),
    )
    if family.tail_is_pore_mass:
        at_most += family.tail_mass
    if query.side is Side.LARGEST:
        assert at_least >= query.t * total
        assert total - at_least <= (1 - query.t) * total
    else:
        assert at_most >= query.t * total
        assert total - at_most <= (1 - query.t) * total


def fraction_length_reference(family, query):
    """``pores.fraction_length`` by Fraction walks over the pore masses, with
    both threshold inequalities summed again over the whole family after an
    exact answer."""
    total = family.root.side
    target = query.t * total
    if family.tail_mass >= min(query.t, 1 - query.t) * total:
        raise InsufficientDepthError(
            "unresolved tail mass straddles the requested threshold",
            tail_mass=family.tail_mass,
        )
    if query.side is Side.LARGEST:
        answer = _scan_largest(family, target)
    else:
        answer = _scan_smallest(family, target)
    if answer.exact:
        _assert_threshold_bounds(family, query, answer.value)
    return answer


def eq13_constant(t, t_prime):
    """Comparison constant between component and dyadic smallest-side lengths.

    For t' < t the dyadic length at t dominates 2**-k times the component
    length at t', where k is minimal with t' + 2**-(k-2) < t (at most two
    dyadic pores of each size fit inside one gap component).
    """
    t, t_prime = Fraction(t), Fraction(t_prime)
    if not 0 < t_prime < t < 1:
        raise PreconditionError("needs 0 < t' < t < 1")
    k = 0
    while t_prime + Fraction(4, 1 << k) >= t:
        k += 1
    return Fraction(1, 1 << k)


def tilde_fraction_length(components, window, query):
    """The fraction-length thresholds computed over gap-component lengths
    instead of pores, by a Fraction walk over the lengths."""
    if not components:
        raise PreconditionError("empty component list")
    if isinstance(window, Cube):
        lo, hi = window.as_interval()
    else:
        lo, hi = Fraction(window[0]), Fraction(window[1])
    total = hi - lo
    target = query.t * total
    masses = {}
    for comp in components:
        masses[comp.length] = masses.get(comp.length, Fraction(0)) + comp.length
    lengths = sorted(masses, reverse=(query.side is Side.LARGEST))
    cum = Fraction(0)
    for L in lengths:
        cum += masses[L]
        if cum >= target:
            return Bracket(L, L)
    raise PreconditionError("fraction threshold exceeds the total component mass")
