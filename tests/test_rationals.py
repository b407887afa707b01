import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poremetrics.errors import PreconditionError
from poremetrics.rationals import (
    Bracket,
    int_nth_root,
    parse_rational,
    rational_pow,
)


def test_bracket_exactness_is_read_from_its_ends():
    # Exact only when both ends are one Fraction: equal floats, equal
    # infinities and distinct Fractions are brackets.
    assert not Bracket(0.5, 0.5).exact
    assert not Bracket(math.inf, math.inf).exact
    assert not Bracket(Fraction(1), Fraction(2)).exact
    half = Bracket(Fraction(1, 2), Fraction(1, 2))
    assert half.exact and half.value == Fraction(1, 2)
    for inexact in (Bracket(0.5, 0.5), Bracket(Fraction(1), Fraction(2)), Bracket(Fraction(1), math.inf)):
        with pytest.raises(PreconditionError):
            inexact.value


def test_int_nth_root_exact_cases():
    assert int_nth_root(0, 5) == 0
    assert int_nth_root(1, 7) == 1
    assert int_nth_root(8, 3) == 2
    assert int_nth_root(2**60, 2) == 2**30
    assert int_nth_root(10**30, 3) == 10**10


def test_int_nth_root_rejects_non_powers():
    assert int_nth_root(7, 3) is None
    assert int_nth_root(2**60 + 1, 2) is None


def test_int_nth_root_of_large_integers():
    # Roots far beyond float precision and past the float range, with their
    # neighbours; each must take a few Newton steps, not one per unit of the
    # float root's error.
    for k in (3, 5, 7):
        for base in (3**100, 2**70 + 1, 10**300 + 7):
            m = base**k
            assert int_nth_root(m, k) == base
            assert int_nth_root(m - 1, k) is None
            assert int_nth_root(m + 1, k) is None
    assert int_nth_root(2**210 + 12345, 3) is None
    assert int_nth_root(2**240 + 12345, 3) is None


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=6))
def test_int_nth_root_round_trip(base, k):
    assert int_nth_root(base**k, k) == base


def test_rational_pow():
    assert rational_pow(Fraction(4), Fraction(1, 2)) == 2
    assert rational_pow(Fraction(1, 4), Fraction(-1, 2)) == 2
    assert rational_pow(Fraction(27, 8), Fraction(2, 3)) == Fraction(9, 4)
    assert rational_pow(Fraction(2), Fraction(1, 2)) is None
    assert rational_pow(Fraction(5), 3) == 125
    with pytest.raises(ZeroDivisionError):
        rational_pow(Fraction(0), Fraction(-1))


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_rational("")
    with pytest.raises(ValueError):
        parse_rational("one half")
