from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poremetrics.dyadic import Cube
from poremetrics.errors import PreconditionError


def test_first_bisection():
    root = Cube.interval(0, 1)
    kids = root.children()
    assert [k.as_interval() for k in kids] == [
        (Fraction(0), Fraction(1, 2)),
        (Fraction(1, 2), Fraction(1)),
    ]


def test_children_of_inner_cube():
    root = Cube.interval(0, 1)
    right = root.children()[1]  # [1/2, 1)
    kids = right.children()
    assert [k.as_interval() for k in kids] == [
        (Fraction(1, 2), Fraction(3, 4)),
        (Fraction(3, 4), Fraction(1)),
    ]


def test_parent_examples():
    root = Cube.interval(0, 1)
    q = root.children()[1].children()[1]  # [3/4, 1)
    assert q.parent().as_interval() == (Fraction(1, 2), Fraction(1))
    with pytest.raises(PreconditionError):
        root.parent()
    child = Cube(root_origin=Fraction(0), root_side=Fraction(1), generation=2, index=3)
    assert child.parent().index == 1
    assert child.parent().generation == 1


@pytest.mark.parametrize("depth,origin,side", [(12, Fraction(-3, 7), Fraction(5, 3)), (10, Fraction(0), Fraction(1))])
def test_descendants_partition_interval(depth, origin, side):
    root = Cube.interval(origin, origin + side)
    cells = list(root.descendants(depth))
    assert len(cells) == 2**depth
    assert sum(c.measure for c in cells) == root.measure
    cursor = origin
    for cell in cells:
        lo, hi = cell.as_interval()
        assert lo == cursor
        cursor = hi
    assert cursor == origin + side


@st.composite
def cubes(draw, max_gen=20):
    origin = draw(st.fractions(min_value=-8, max_value=8, max_denominator=64))
    side = draw(st.fractions(min_value=Fraction(1, 64), max_value=8, max_denominator=64))
    gen = draw(st.integers(min_value=0, max_value=max_gen))
    index = draw(st.integers(min_value=0, max_value=2**gen - 1))
    return Cube(origin, side, gen, index)


@settings(max_examples=120, deadline=None)
@given(cubes())
def test_children_partition_parent(q):
    kids = q.children()
    assert len(kids) == 2
    assert sum(k.measure for k in kids) == q.measure
    assert all(k.parent() == q for k in kids)
    assert len({k.index for k in kids}) == len(kids)


@settings(max_examples=120, deadline=None)
@given(cubes())
def test_ancestor_chain_reaches_root(q):
    steps = 0
    cur = q
    while cur.generation > 0:
        cur = cur.parent()
        steps += 1
    assert steps == q.generation
    assert cur.index == 0
    assert q.ancestor(q.generation) == cur
