"""The integer ``Generated`` against a ``FinitePoints`` of the same points.

``Generated`` keeps integer numerators over one denominator and answers every
query by integer bisection; ``FinitePoints`` built from the plain Fraction
recursion answers the same queries on Fractions.  Windows cover the envelope,
envelope cubes, off-grid ends (denominators 97, 101 and 103 divide no
generator denominator up to level 9), ends at set points, a window inside
one gap, and windows outside or straddling the envelope.
"""

import json
from fractions import Fraction

import pytest

from oracles import components, fraction_generate, meets
from poremetrics.dyadic import Cube
from poremetrics.errors import PreconditionError
from poremetrics.pores import enumerate_pores
from poremetrics.setmodels import (
    ContractionSequence,
    FinitePoints,
    Generated,
    envelope_cube,
    load_set_spec,
    save_set_spec,
)
from poremetrics.weights import ApQuery, _Gaps, _Window, a1_quotient, ap_product

SEQS = {
    "1/2": ContractionSequence.constant(Fraction(1, 2)),
    "2/3": ContractionSequence.constant(Fraction(2, 3)),
    "1": ContractionSequence.constant(1),
    "hh": ContractionSequence.half_harmonic(),
}


def windows(pts, seq, level):
    lo, hi = pts[0], pts[-1]
    span = hi - lo
    n = len(pts)
    a, b, k = pts[n // 3], pts[(2 * n) // 3], (n - 1) // 2
    gap = pts[k + 1] - pts[k]
    out = [
        (lo, hi),
        (a, b),
        (lo + span * Fraction(2, 97), lo + span * Fraction(50, 101)),
        (a, a + span / 103),
        (b - span / 101, b),
        (pts[k] + gap / 3, pts[k] + gap / 2),
        (hi - span / 97, hi + Fraction(1, 3)),
        (hi + Fraction(1, 7), hi + 3),
        (lo - Fraction(5, 3), lo - Fraction(1, 11)),
    ]
    out += [envelope_cube(seq, m).as_interval() for m in sorted({0, level // 2, level})]
    return out


def run_points(oracle, lo, hi):
    """The points of ``piece_runs`` as Fractions."""
    return [Fraction(a, b) for b, nums, _ in oracle.piece_runs(lo, hi) for a in nums]


def probes(pts, w_lo, w_hi):
    span = w_hi - w_lo
    xs = [w_lo, w_hi, (w_lo + w_hi) / 2]
    xs += [w_lo + span * Fraction(k, 97) for k in range(-5, 103, 7)]
    return xs


CASES = [
    (name, level, reflect)
    for name in SEQS
    for level in range(10)
    for reflect in (False, True)
]


@pytest.mark.parametrize("name,level,reflect", CASES)
def test_queries_match_fraction_points(name, level, reflect):
    seq = SEQS[name]
    g = Generated(seq, level, reflect)
    pts, env = fraction_generate(seq, level, reflect)
    f = FinitePoints(pts)
    assert g.envelope == env
    for w_lo, w_hi in windows(pts, seq, level):
        if level >= 8 and w_hi - w_lo > (env[1] - env[0]) / 4:
            # Fraction references over windows of more than a few thousand
            # points cost about a second each; levels 0-7 cover every window.
            continue
        assert meets(g, w_lo, w_hi) == meets(f, w_lo, w_hi)
        assert run_points(g, w_lo, w_hi) == run_points(f, w_lo, w_hi)
        for x in probes(pts, w_lo, w_hi):
            assert g.distance(x) == f.distance(x)
        assert [(c.left, c.right) for c in components(g, w_lo, w_hi)] == [
            (c.left, c.right) for c in components(f, w_lo, w_hi)
        ]
        cube = Cube.interval(w_lo, w_hi)
        gaps, expected = _Gaps.of(_Window.read(g, cube)), _Gaps.of(_Window.read(f, cube))
        assert gaps.distinct == expected.distinct
        assert gaps.order == expected.order
        assert gaps.inside == expected.inside
        assert gaps.ends == expected.ends
        assert gaps == expected
        if meets(f, w_lo, w_hi):
            assert enumerate_pores(g, cube, 45) == enumerate_pores(f, cube, 45)
        else:
            for oracle in (g, f):
                with pytest.raises(PreconditionError):
                    enumerate_pores(oracle, cube, 45)


class TestLazyPoints:
    def test_envelope_queries_never_build_points(self):
        seq = SEQS["hh"]
        g = Generated(seq, 8)
        for m in (0, 3, 8):
            cube = envelope_cube(seq, m)
            ap_product(g, cube, ApQuery(Fraction(1, 3), 2))
            a1_quotient(g, cube, Fraction(1, 3))
            enumerate_pores(g, cube, 40)
        assert "points" not in g.__dict__
        assert len(g.points) == 3**8 + 1
        assert "points" in g.__dict__

    def test_equality_and_hash_follow_the_spec(self):
        a = Generated(SEQS["2/3"], 5, True)
        b = Generated(ContractionSequence.constant(Fraction(4, 6)), 5, True)
        a.points  # a built view must not change equality either
        assert a == b and hash(a) == hash(b)
        assert a != Generated(SEQS["2/3"], 5)
        assert a != Generated(SEQS["2/3"], 4, True)

    @pytest.mark.parametrize("name", ["1/2", "hh"])
    @pytest.mark.parametrize("reflect", [False, True])
    def test_spec_file_round_trip_keeps_points(self, tmp_path, name, reflect):
        g = Generated(SEQS[name], 6, reflect)
        path = tmp_path / "set.json"
        save_set_spec(g, path)
        again = load_set_spec(path)
        assert again == g
        assert again.points == g.points == fraction_generate(SEQS[name], 6, reflect)[0]
        assert json.loads(path.read_text())["reflect"] is reflect
