"""Shared exact-invariant assertions for randomized (set, window, t) instances.

Used by the hypothesis fuzz suite and by the seeded acceptance sweep: one
instance check covers pore disjointness and mass accounting, the range and
monotonicity of the two fraction-length functions, the largest/smallest
duality, the threshold-mass inequalities, the component/dyadic comparisons,
and the unit floor of the two-factor weight product.
"""

import math
from fractions import Fraction

from oracles import bfs_pore_cubes, components, eq13_constant, tilde_fraction_length
from poremetrics.dyadic import Cube
from poremetrics.pores import (
    FractionQuery,
    Side,
    enumerate_pores,
    fraction_length,
)
from poremetrics.weights import ApQuery, ap_product

DEPTH = 30


def check_instance(oracle, window: Cube, t: Fraction, t2: Fraction) -> None:
    family = enumerate_pores(oracle, window, DEPTH)
    total = window.side

    # Pairwise disjointness and exact mass accounting of the enumeration.
    pores = sorted(p.as_interval() for p in bfs_pore_cubes(oracle, window, 12))
    for (a1, b1), (a2, b2) in zip(pores, pores[1:]):
        assert b1 <= a2
    masses = {g: mass for g, _, _, mass in family.entries()}
    assert sum(masses.values()) + family.tail_mass == total

    max_len = family.maximal_pore_length()
    largest = fraction_length(family, FractionQuery(t, Side.LARGEST)).value
    smallest = fraction_length(family, FractionQuery(t, Side.SMALLEST)).value

    # Both thresholds are positive and no larger than the maximal pore length.
    assert 0 < largest <= max_len
    assert 0 < smallest <= max_len

    # Monotonicity in the threshold.
    lo_t, hi_t = (t, t2) if t <= t2 else (t2, t)
    assert fraction_length(family, FractionQuery(lo_t, Side.LARGEST)).value >= \
        fraction_length(family, FractionQuery(hi_t, Side.LARGEST)).value
    assert fraction_length(family, FractionQuery(lo_t, Side.SMALLEST)).value <= \
        fraction_length(family, FractionQuery(hi_t, Side.SMALLEST)).value

    # Largest-side value at t dominates the smallest-side value at 1 - t.
    assert largest >= fraction_length(family, FractionQuery(1 - t, Side.SMALLEST)).value

    # Threshold-mass inequalities on both sides.
    mass_ge = sum(
        (m for g, m in masses.items() if family.length_of(g) >= largest),
        Fraction(0),
    )
    assert mass_ge >= t * total
    assert total - mass_ge <= (1 - t) * total
    mass_le = family.tail_mass + sum(
        (m for g, m in masses.items() if family.length_of(g) <= smallest),
        Fraction(0),
    )
    assert mass_le >= t * total
    assert total - mass_le <= (1 - t) * total

    # Endpoint behavior: the extreme thresholds return the maximal length as
    # soon as the top-length mass allows it.
    eps = Fraction(1, 1000)
    top_mass = masses[min(masses)]
    if top_mass >= eps * total:
        assert fraction_length(family, FractionQuery(eps, Side.LARGEST)).value == max_len
    if top_mass > eps * total:
        assert fraction_length(family, FractionQuery(1 - eps, Side.SMALLEST)).value == max_len

    # Component/dyadic comparisons.
    lo_w, hi_w = window.as_interval()
    comps = components(oracle, lo_w, hi_w)
    tilde_largest = tilde_fraction_length(comps, window, FractionQuery(t, Side.LARGEST)).value
    tilde_smallest = tilde_fraction_length(comps, window, FractionQuery(t, Side.SMALLEST)).value
    assert largest <= tilde_largest
    assert tilde_largest <= 4 * fraction_length(family, FractionQuery(t / 4, Side.LARGEST)).value
    assert smallest <= tilde_smallest
    t_prime = t / 2
    c = eq13_constant(t, t_prime)
    tilde_at_prime = tilde_fraction_length(comps, window, FractionQuery(t_prime, Side.SMALLEST)).value
    assert c * tilde_at_prime <= smallest

    # The two-factor weight product never drops below one.
    res = ap_product(oracle, window, ApQuery(Fraction(1, 3), 2), max_gen=DEPTH)
    assert res.product.hi == math.inf or res.product.hi >= 1
