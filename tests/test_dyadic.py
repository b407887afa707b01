from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import children
from poremetrics.dyadic import Cube


# The reference pore search of oracles.py bisects cubes with ``children``,
# which builds both halves with ``Cube.interval``.


def test_first_bisection():
    root = Cube.interval(0, 1)
    kids = children(root)
    assert [k.as_interval() for k in kids] == [
        (Fraction(0), Fraction(1, 2)),
        (Fraction(1, 2), Fraction(1)),
    ]


def test_children_of_inner_cube():
    root = Cube.interval(0, 1)
    right = children(root)[1]  # [1/2, 1)
    kids = children(right)
    assert [k.as_interval() for k in kids] == [
        (Fraction(1, 2), Fraction(3, 4)),
        (Fraction(3, 4), Fraction(1)),
    ]


@pytest.mark.parametrize("depth,origin,side", [(12, Fraction(-3, 7), Fraction(5, 3)), (10, Fraction(0), Fraction(1))])
def test_descendants_partition_interval(depth, origin, side):
    # The cubes of one generation, halved generation by generation, tile the
    # root in order: Cube.interval, side and as_interval below it.
    root = Cube.interval(origin, origin + side)
    cells = [root]
    for _ in range(depth):
        cells = [kid for cell in cells for kid in children(cell)]
    assert len(cells) == 2**depth
    assert all(c.side == side / 2**depth for c in cells)
    assert sum(c.side for c in cells) == root.side
    cursor = origin
    for cell in cells:
        lo, hi = cell.as_interval()
        assert lo == cursor
        cursor = hi
    assert cursor == origin + side


@st.composite
def cubes(draw, max_gen=20):
    # A root interval and a path of left/right halvings below it.
    origin = draw(st.fractions(min_value=-8, max_value=8, max_denominator=64))
    side = draw(st.fractions(min_value=Fraction(1, 64), max_value=8, max_denominator=64))
    cube = Cube.interval(origin, origin + side)
    for right in draw(st.lists(st.booleans(), max_size=max_gen)):
        cube = children(cube)[right]
    return cube


@settings(max_examples=120, deadline=None)
@given(cubes())
def test_children_partition_parent(q):
    kids = children(q)
    assert len(kids) == 2
    assert sum(k.side for k in kids) == q.side
    assert kids[0].as_interval()[0] == q.as_interval()[0]
    assert kids[0].as_interval()[1] == kids[1].as_interval()[0]
    assert kids[1].as_interval()[1] == q.as_interval()[1]
    assert len(set(kids)) == len(kids)
