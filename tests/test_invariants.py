"""Hypothesis fuzzing of the exact structural invariants."""

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from invariant_checks import check_instance
from oracles import meets
from poremetrics.dyadic import Cube
from poremetrics.setmodels import FinitePoints, IntegerLattice


@st.composite
def oracles(draw):
    if draw(st.booleans()):
        return IntegerLattice()
    pts = draw(
        st.lists(
            st.fractions(min_value=-4, max_value=4, max_denominator=64),
            min_size=1,
            max_size=6,
            unique=True,
        )
    )
    return FinitePoints(tuple(sorted(pts)))


@st.composite
def windows(draw):
    lo = draw(st.fractions(min_value=-4, max_value=4, max_denominator=16))
    size_exp = draw(st.integers(min_value=-3, max_value=3))
    return Cube.interval(lo, lo + Fraction(2) ** size_exp)


thresholds = st.fractions(
    min_value=Fraction(1, 50), max_value=Fraction(49, 50), max_denominator=50
)


@settings(max_examples=120, deadline=None)
@given(oracles(), windows(), thresholds, thresholds)
def test_randomized_structural_invariants(oracle, window, t, t2):
    lo, hi = window.as_interval()
    assume(meets(oracle, lo, hi))
    check_instance(oracle, window, t, t2)
