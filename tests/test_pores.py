import json
import math
import random
import warnings
from collections import Counter
from fractions import Fraction

import pytest

from oracles import (
    bfs_counts,
    bfs_pore_cubes,
    bfs_profiles,
    box_scan_components,
    box_scan_covers,
    box_scan_distance,
    box_scan_meets,
    brute_force_pores,
    cell_of,
    components,
    eq13_constant,
    fraction_length_reference,
    meets,
    pore_histogram,
    tilde_fraction_length,
)
from test_weights import mean_dist_power
from poremetrics import cli, pores
from poremetrics.dyadic import Cube
from poremetrics.errors import InsufficientDepthError, PreconditionError
from poremetrics.rationals import format_rational
from poremetrics.pores import (
    FractionQuery,
    PoreFamily,
    Side,
    cell_pore_profiles,
    enumerate_pores,
    fraction_length,
    ratio_condition,
    weak_porosity_check,
)
from poremetrics.weights import a1_quotient
from poremetrics.setmodels import (
    BoxUnion,
    ContractionSequence,
    FinitePoints,
    Generated,
    IntegerLattice,
    envelope_cube,
    oracle_from_spec,
)

UNIT = Cube.interval(0, 1)
Z = IntegerLattice()
HALF = ContractionSequence.constant(Fraction(1, 2))
HH = ContractionSequence.half_harmonic()


class TestEnumerate:
    def test_lattice_unit_window(self):
        fam = enumerate_pores(Z, UNIT, 10)
        assert fam.counts == {j: 1 for j in range(1, 11)}
        assert fam.tail_mass == Fraction(1, 1024)
        # the single pore at generation k is [2^-k, 2^-k+1)
        pores = list(bfs_pore_cubes(Z, UNIT, 4))
        assert [p.as_interval() for p in pores] == [
            (Fraction(1, 2), Fraction(1)),
            (Fraction(1, 4), Fraction(1, 2)),
            (Fraction(1, 8), Fraction(1, 4)),
            (Fraction(1, 16), Fraction(1, 8)),
        ]

    def test_two_point_set_matches_brute_force(self):
        pts = (Fraction(0), Fraction(1))
        fam = enumerate_pores(FinitePoints(pts), UNIT, 10)
        assert fam.counts == pore_histogram(pts, 0, 1, 10)
        # On [0, 1) the endpoints {0, 1} carve out the same family as the
        # full lattice: 1 is excluded by half-openness on every subcube.
        assert fam.counts == enumerate_pores(Z, UNIT, 10).counts

    @pytest.mark.parametrize(
        "pts,lo,hi",
        [
            ((Fraction(0), Fraction(1, 3), Fraction(1)), 0, 1),
            ((Fraction(1, 7), Fraction(2, 3)), Fraction(-1, 2), Fraction(3, 2)),
            ((Fraction(0),), -1, 1),
            ((Fraction(-5, 4), Fraction(1, 5), Fraction(1, 4), Fraction(9, 8)), -2, 2),
        ],
    )
    def test_brute_force_agreement(self, pts, lo, hi):
        window = Cube.interval(lo, hi)
        fam = enumerate_pores(FinitePoints(pts), window, 9)
        assert fam.counts == pore_histogram(pts, lo, hi, 9)

    @pytest.mark.parametrize(
        "oracle,window",
        [
            (FinitePoints((Fraction(0), Fraction(1, 3), Fraction(5, 7))), Cube.interval(Fraction(-1, 3), Fraction(4, 3))),
            (Z, Cube.interval(Fraction(-5, 3), Fraction(7, 3))),
            (Z, Cube.interval(Fraction(1, 7), Fraction(57, 7))),
        ],
    )
    def test_bfs_and_histogram_paths_agree(self, oracle, window):
        assert enumerate_pores(oracle, window, 11).counts == bfs_counts(oracle, window, 11)

    def test_histogram_big_denominators(self):
        # Denominators beyond 2^61 take the same integer algorithm; it must
        # agree with the exhaustive scan.
        pts = (Fraction(1, 2**70 + 1), Fraction(2**69 + 7, 2**70), Fraction(9, 10))
        fam = enumerate_pores(FinitePoints(pts), UNIT, 8)
        assert fam.counts == pore_histogram(pts, 0, 1, 8)

    def test_disjoint_window_rejected(self):
        # The lattice, a point set and a union of intervals refuse alike.
        window = Cube.interval(Fraction(1, 2), Fraction(3, 4))
        message = "^window does not meet the set; choose a window that meets the set$"
        for oracle in (Z, FinitePoints((Fraction(5),)), BoxUnion((((Fraction(0),), (Fraction(1, 4),)),))):
            with pytest.raises(PreconditionError, match=message):
                enumerate_pores(oracle, window, 10)

    def test_pairwise_disjoint_and_mass_identity(self):
        pts = (Fraction(0), Fraction(2, 5), Fraction(1))
        oracle = FinitePoints(pts)
        pores = [p.as_interval() for p in bfs_pore_cubes(oracle, UNIT, 8)]
        pores.sort()
        for (a1, b1), (a2, b2) in zip(pores, pores[1:]):
            assert b1 <= a2
        fam = enumerate_pores(oracle, UNIT, 8)
        assert sum(mass for *_, mass in fam.entries()) + fam.tail_mass == UNIT.side

    def test_tail_mass_decreases_with_depth(self):
        oracle = FinitePoints((Fraction(0), Fraction(1, 3), Fraction(1)))
        tails = [enumerate_pores(oracle, UNIT, d).tail_mass for d in (3, 6, 12, 24)]
        assert all(a > b for a, b in zip(tails, tails[1:]))
        assert tails[-1] < Fraction(1, 2**20)


class TestSplitGenerationHistogram:
    """The histogram from split generations of adjacent points, against the
    pore oracle and against the BFS."""

    @pytest.mark.parametrize("max_gen", [1, 2, 7, 16, 33, 60, 61, 62, 70])
    def test_random_point_sets(self, max_gen):
        rng = random.Random(max_gen)
        for _ in range(25):
            pts = sorted({
                Fraction(rng.randrange(-10**4, 10**4), rng.randrange(1, 10**4))
                for _ in range(rng.randrange(1, 10))
            })
            lo = Fraction(rng.randrange(-3 * 10**4, 10**4), rng.randrange(1, 10**4))
            hi = lo + Fraction(rng.randrange(1, 10**5), rng.randrange(1, 10**4))
            window = Cube.interval(lo, hi)
            oracle = FinitePoints(tuple(pts))
            if not meets(oracle, *window.as_interval()):
                continue
            gen = rng.randrange(1, max_gen + 1)
            for j in (gen, max_gen):
                assert enumerate_pores(oracle, window, j).counts == pore_histogram(pts, lo, hi, j)

    def test_oracle_matches_exhaustive_scan(self):
        # pore_histogram scans only children of occupied cubes; at small
        # depth it must agree with the scan of every dyadic subcube.
        rng = random.Random(1)
        for _ in range(20):
            pts = [Fraction(rng.randrange(-50, 50), rng.randrange(1, 30)) for _ in range(5)]
            lo = Fraction(rng.randrange(-40, 0), rng.randrange(1, 20))
            hi = lo + Fraction(rng.randrange(1, 60), rng.randrange(1, 20))
            counts = {}
            for a, b in brute_force_pores(pts, lo, hi, 8):
                g = ((hi - lo) / (b - a)).numerator.bit_length() - 1
                counts[g] = counts.get(g, 0) + 1
            assert pore_histogram(pts, lo, hi, 8) == counts

    def test_pair_splitting_beyond_generation_61(self):
        lo, hi = Fraction(-1, 3), Fraction(2, 3)
        pts = (Fraction(1, 5), Fraction(1, 5) + Fraction(1, 2**66))
        fam = enumerate_pores(FinitePoints(pts), Cube.interval(lo, hi), 70)
        assert fam.counts == pore_histogram(pts, lo, hi, 70)
        # one pore per generation while the pair shares a cell, none at the split
        split = min(j for j in range(1, 71) if fam.counts.get(j) != 1)
        assert 61 < split < 70
        assert split not in fam.counts and fam.counts[split + 1] == 2

    @pytest.mark.parametrize(
        "oracle,window",
        [
            (Generated(HH, 3), envelope_cube(HH, 3)),
            (Generated(HALF, 2, with_reflection=True), Cube.interval(Fraction(-7, 3), Fraction(13, 5))),
        ],
    )
    @pytest.mark.parametrize("max_gen", [64, 100])
    def test_matches_bfs_deep(self, oracle, window, max_gen):
        fam = enumerate_pores(oracle, window, max_gen)
        assert fam.counts == bfs_counts(oracle, window, max_gen)
        assert max(fam.counts) == max_gen

    def test_point_cloud_1d_takes_histogram_path(self):
        raw = [Fraction(5, 7), Fraction(1, 3), Fraction(-1, 4), Fraction(1, 3),
               Fraction(3, 2), Fraction(0), Fraction(2, 9)]
        # A cloud file of one-coordinate points loads as the FinitePoints of
        # its distinct values.
        cloud = oracle_from_spec({"type": "points", "points": [[format_rational(p)] for p in raw]})
        assert cloud == FinitePoints(tuple(sorted(set(raw))))
        inside = (Fraction(0), Fraction(2, 9), Fraction(1, 3), Fraction(5, 7))
        runs = cloud.piece_runs(Fraction(0), Fraction(1))
        assert tuple(Fraction(a, b) for b, nums, _ in runs for a in nums) == inside
        fam = enumerate_pores(cloud, UNIT, 30)
        assert fam.counts == bfs_counts(cloud, UNIT, 30)
        assert fam.counts == pore_histogram(raw, 0, 1, 30)
        assert fam.counts == enumerate_pores(FinitePoints(inside), UNIT, 30).counts


BOXES_1D = (
    ((Fraction(0),), (Fraction(1, 4),)),
    ((Fraction(1, 3),), (Fraction(1, 3),)),  # degenerate
    ((Fraction(1, 2),), (Fraction(5, 8),)),
    ((Fraction(5, 8),), (Fraction(3, 4),)),  # touches the previous box
)


def _covers(boxes):
    """The reference search's ``covers`` for a union of corner pairs: a scan
    of every interval as given."""
    spans = [(lo, hi) for (lo,), (hi,) in boxes]
    return lambda lo, hi: box_scan_covers(spans, lo, hi)


class TestBoxPruning:
    """The reference BFS skips the cubes a union covers and yields the same
    pores as without pruning; the histogram, which needs no search, counts
    them."""

    @pytest.mark.parametrize(
        "boxes,window,depth",
        [
            (BOXES_1D, UNIT, 12),
            (BOXES_1D, Cube.interval(Fraction(-1, 3), Fraction(4, 3)), 12),
        ],
    )
    def test_pruned_bfs_matches_unpruned(self, boxes, window, depth):
        union = BoxUnion(boxes)
        cubes = list(bfs_pore_cubes(union, window, depth, _covers(boxes)))
        assert cubes
        assert cubes == list(bfs_pore_cubes(union, window, depth))
        fam = enumerate_pores(union, window, depth)
        assert fam.counts == bfs_counts(union, window, depth)
        assert fam.tail_mass == window.side - sum(cube.side for cube in cubes)

    def test_covers_cube(self):
        covers = _covers(BOXES_1D)
        assert covers(0, Fraction(1, 4))
        assert not covers(Fraction(1, 4), Fraction(1, 2))
        # two touching boxes, [1/2, 5/8] and [5/8, 3/4]
        assert covers(Fraction(1, 2), Fraction(3, 4))
        assert not covers(Fraction(1, 3), Fraction(1, 3) + Fraction(1, 2**40))

    def test_pruning_visits_only_boundary_cubes(self):
        visited = []

        class Counting(BoxUnion):
            def piece_runs(self, lo, hi):
                visited.append((lo, hi))
                return super().piece_runs(lo, hi)

        list(bfs_pore_cubes(Counting(BOXES_1D[:1]), UNIT, 20, _covers(BOXES_1D[:1])))
        # two children of the single boundary cube per generation, plus the root
        assert len(visited) == 2 * 20 + 1


def _random_union(rng):
    """One to six closed intervals on a grid of [-1, 2] with step 1/8 or
    1/15: points, and intervals that touch, nest in or overlap an earlier
    one, which the union merges."""
    step = rng.choice((Fraction(1, 8), Fraction(1, 15)))
    grid = [k * step for k in range(int(-1 / step), int(2 / step) + 1)]
    spans = []
    for _ in range(rng.randint(1, 6)):
        lo, hi = sorted(rng.sample(grid, 2))
        kind = rng.choice(("free", "free", "point", "touch", "nest", "overlap")) if spans else "free"
        if kind != "free":
            a, b = rng.choice(spans)
            lo, hi = {
                "point": (a, a),
                "touch": (b, b + hi - lo),
                "nest": (a + (b - a) / 4, b - (b - a) / 4),
                "overlap": ((a + b) / 2, b + hi - lo),
            }[kind]
        spans.append((lo, hi))
    return spans


def _random_window(rng):
    """A dyadic window, whose cells have ends on the grid of 1/8, or an
    off-grid one."""
    if rng.random() < 0.5:
        lo = Fraction(rng.randint(-8, 8), 8)
        return Cube.interval(lo, lo + Fraction(1 << rng.randint(0, 4), 8))
    lo = Fraction(rng.randint(-30, 30), rng.choice((3, 7, 11)))
    return Cube.interval(lo, lo + Fraction(rng.randint(1, 60), rng.choice((5, 9, 13))))


def _features(spans, union, window, max_gen):
    """Which of the cases the differential test must reach this union hits."""
    lo, hi = window.as_interval()
    unit = window.side / 2**max_gen
    ends = [e for span in spans for e in span if lo < e < hi]
    out = set()
    if len(union.los) < len(spans):
        out.add("merged")
    if any(a == b for a, b in spans if lo <= a < hi):
        out.add("degenerate")
    if any(b == c for (_, b), (c, _) in zip(sorted(spans), sorted(spans)[1:])):
        out.add("touching")
    if any(a < lo <= b for a, b in spans):
        out.add("past lo")
    if any(a < hi <= b for a, b in spans):
        out.add("past hi")
    if any(((e - lo) / unit).denominator == 1 for e in ends):
        out.add("end on a cell boundary")
    if (8 * lo).denominator != 1 or (8 * hi).denominator != 1:
        out.add("off-grid window")
    return out


class TestPiecesMatchTheBfs:
    """The pores, the pore profiles and the components of unions of
    intervals, all from the pieces of one window query, against the
    reference BFS and the scans of every interval as given."""

    def test_random_unions(self):
        rng = random.Random(17)
        seen, unions = set(), 0
        while unions < 320:
            spans = _random_union(rng)
            boxes = tuple(((a,), (b,)) for a, b in spans)
            union = BoxUnion(boxes)
            window = _random_window(rng)
            lo, hi = window.as_interval()
            got = [(c.left, c.right) for c in components(union, lo, hi)]
            assert got == box_scan_components(spans, lo, hi), (spans, window)
            if not box_scan_meets(spans, lo, hi):
                continue
            unions += 1
            max_gen = rng.randint(1, 14)
            covers = _covers(boxes)
            cubes = list(bfs_pore_cubes(union, window, max_gen, covers))
            fam = enumerate_pores(union, window, max_gen)
            assert fam.counts == bfs_counts(union, window, max_gen, covers), (spans, window, max_gen)
            assert fam.tail_mass == window.side - sum(c.side for c in cubes)
            profiles = [
                (Fraction(h, den), Fraction(d_l, den), Fraction(d_r, den))
                for h, d_l, d_r, den in cell_pore_profiles(
                    window, union.piece_runs(lo, hi), union.distance(lo), union.distance(hi), max_gen
                )
            ]
            expected = bfs_profiles(union, window, max_gen, covers, lambda x: box_scan_distance(spans, x))
            assert profiles == expected, (spans, window, max_gen)
            seen |= _features(spans, union, window, max_gen)
        assert seen == {
            "merged", "degenerate", "touching", "past lo", "past hi",
            "end on a cell boundary", "off-grid window",
        }


def _boundary_ends(window, max_gen, den):
    """Ends over ``den`` at the generation-J cell boundaries
    lo + q side 2**-J of ``window`` for q = 1, 2**(J-1) and 2**J - 1, one
    numerator unit below each, and the last end below hi.  ``den`` is a
    multiple of every boundary's denominator."""
    lo, hi = window.as_interval()
    ends = {Fraction(math.ceil(hi * den) - 1, den)}
    for q in {1, 1 << (max_gen - 1), (1 << max_gen) - 1}:
        a = (lo + q * window.side / 2**max_gen) * den
        ends |= {a / den, (a - 1) / den}
    return ends


def _cell_rule_sets(max_gen):
    """(set, window) pairs whose piece ends sit where a short reciprocal or
    shift in the cell rule shows: on cell boundaries, one numerator unit
    below them and just below hi, as mixed-denominator point runs (ends over
    the boundaries' denominator and over 127 times it), as unions of
    intervals reaching past both window ends, and as reflected generated
    sets whose first and last points fall on boundaries."""
    for lo, side in ((Fraction(0), Fraction(1)), (Fraction(1, 127), Fraction(5, 3)), (Fraction(-2, 7), Fraction(9, 5))):
        window = Cube.interval(lo, lo + side)
        den = math.lcm(lo.denominator, side.denominator << max_gen)
        ends = sorted(_boundary_ends(window, max_gen, den) | _boundary_ends(window, max_gen, 127 * den))
        yield FinitePoints(ends), window
        inner = list(zip(ends[1:-1:2], ends[2:-1:2]))
        spans = [(lo - Fraction(1, 7), ends[0]), *inner, (ends[-1], lo + side + Fraction(2, 3))]
        yield BoxUnion(tuple(((a,), (b,)) for a, b in spans)), window
    for seq, level in ((HH, 2), (HALF, 2), (ContractionSequence.constant(Fraction(2, 5)), 2)):
        points = Generated(seq, level, True).points
        side = (points[-1] - points[0]) * 2**max_gen / ((1 << max_gen) - 1)
        yield Generated(seq, level, True), Cube.interval(points[0], points[0] + side)


class TestCellRule:
    """Every cell that the pore histogram and the pore profiles compute from
    ``_scaled_runs``, against the Fraction floor ``cell_of``; and what they
    make of those cells, against the reference BFS."""

    GENERATIONS = (1, 2, 40, 64, 300)

    def test_every_cell_matches_the_fraction_floor(self):
        seen = set()
        scaled_runs = pores._scaled_runs
        for max_gen in self.GENERATIONS:
            top = (1 << max_gen) - 1
            for oracle, window in _cell_rule_sets(max_gen):
                lo, hi = window.as_interval()
                calls = []

                def recording(pieces, q0, max_gen):
                    runs = list(scaled_runs(pieces, q0, max_gen))
                    calls.append((pieces, runs))
                    return iter(runs)

                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(pores, "_scaled_runs", recording)
                    enumerate_pores(oracle, window, max_gen)
                    pieces = oracle.piece_runs(lo, hi)
                    list(cell_pore_profiles(window, pieces, oracle.distance(lo), oracle.distance(hi), max_gen))
                assert len(calls) == 2
                for runs_in, runs in calls:
                    assert runs_in == pieces and len(runs) == len(pieces)
                    for (b, lefts, rights), (k, c, s, *_, run_lefts, run_rights) in zip(runs_in, runs):
                        assert run_lefts is lefts and run_rights is rights
                        for a in {*lefts, *rights}:
                            cell, x = cell_of(Fraction(a, b), window, max_gen), (a * k - c) >> s
                            if 0 <= cell <= top:
                                assert x == cell, (oracle, window, max_gen, Fraction(a, b))
                            else:
                                # An interval end past the window: the consumers clamp it.
                                assert min(max(x, 0), top) == min(max(cell, 0), top), (oracle, window, Fraction(a, b))
                                seen.add("below lo" if cell < 0 else "past hi")
                            seen.add("negative" if a < 0 else "nonnegative")
        assert seen == {"below lo", "past hi", "negative", "nonnegative"}

    def test_histogram_and_profiles_match_the_bfs(self):
        for max_gen in self.GENERATIONS:
            for oracle, window in _cell_rule_sets(max_gen):
                lo, hi = window.as_interval()
                covers = None
                if isinstance(oracle, BoxUnion):
                    covers = _covers(tuple(((a,), (b,)) for a, b in zip(oracle.los, oracle.his)))
                expected = bfs_profiles(oracle, window, max_gen, covers)
                profiles = cell_pore_profiles(
                    window, oracle.piece_runs(lo, hi), oracle.distance(lo), oracle.distance(hi), max_gen
                )
                assert [(Fraction(h, d), Fraction(l, d), Fraction(r, d)) for h, l, r, d in profiles] == expected
                # A pore of generation g has relative length 2**-g.
                counts = Counter((1 / length).numerator.bit_length() - 1 for length, _, _ in expected)
                assert enumerate_pores(oracle, window, max_gen).counts == counts, (oracle, window, max_gen)


def _counting(cls):
    """A subclass of the oracle class ``cls`` that records its window
    queries and its distance queries."""

    class Counting(cls):
        queries = []
        distances = []

        def piece_runs(self, lo, hi):
            self.queries.append((lo, hi))
            return super().piece_runs(lo, hi)

        def distance(self, x):
            self.distances.append(x)
            return super().distance(x)

    return Counting


class TestOneWindowQuery:
    """pores, ls-ratio and porosity-check ask the set about each cube once,
    through ``piece_runs``, windows that miss the set included."""

    @pytest.mark.parametrize(
        "make,meets,misses",
        [
            (lambda: _counting(IntegerLattice)(), "unit:[0,1)", "unit:[1/4,1/2)"),
            (lambda: _counting(Generated)(HH, 6), "unit:[0,1)", "unit:[1/4,1/2)"),
            (
                lambda: _counting(BoxUnion)((((Fraction(1, 4),), (Fraction(3, 8),)), ((Fraction(3),), (Fraction(3),)))),
                "unit:[0,1)",
                "unit:[1/2,3/4)",
            ),
        ],
        ids=["lattice", "generated", "box-union"],
    )
    def test_one_query_per_cube(self, monkeypatch, capsys, make, meets, misses):
        oracle = make()
        # Every command gets the counting oracle; "-" stands for its selector.
        monkeypatch.setattr(cli, "parse_set", lambda spec: oracle)
        runs = [
            (["pores", "--set", "-", "--cube", meets, "--max-gen", "20"], 0, 1),
            (["pores", "--set", "-", "--cube", misses], 2, 1),
            (["ls-ratio", "--set", "-", "--cubes", "dyadic:-3..1", "--s", "1/10"], 0, 5),
            (["ls-ratio", "--set", "-", "--cubes", misses, "--s", "1/10"], 0, 1),
            (["porosity-check", "--set", "-", "--cube", meets, "--sigma", "1/2", "--gamma", "1/2"], 0, 1),
            (["porosity-check", "--set", "-", "--cube", misses, "--sigma", "1/2", "--gamma", "1/2"], 0, 1),
        ]
        for argv, code, cubes in runs:
            del oracle.queries[:]
            assert cli.main(argv) == code, argv
            assert len(oracle.queries) == cubes, argv
        out = capsys.readouterr().out
        # The rows of a window that misses the set keep their bytes.
        lo, hi = misses[len("unit:["):-1].split(",")
        assert f'"0:[{lo},{hi})",1/10,,,,false\n' in out
        assert f'"achieved_mass": "{format_rational(Fraction(hi) - Fraction(lo))}"' in out
        assert '"holds": true' in out and '"threshold_length": null' in out


    @pytest.mark.parametrize(
        "make,meets,misses,far,envelope",
        [
            (lambda: _counting(IntegerLattice)(), "unit:[0,1)", "unit:[1/4,1/2)", "unit:[1/8,3/16)", None),
            (lambda: _counting(Generated)(HH, 6), "unit:[0,2)", "unit:[1/4,1/2)", "unit:[-10,-9)", "unit:[0,1)"),
            (
                lambda: _counting(BoxUnion)((((Fraction(1, 4),), (Fraction(3, 8),)), ((Fraction(3),), (Fraction(3),)))),
                "unit:[0,1)",
                "unit:[1/2,3/4)",
                "unit:[1,9/8)",
                None,
            ),
        ],
        ids=["lattice", "generated", "box-union"],
    )
    def test_one_query_per_weight_mean(self, monkeypatch, tmp_path, make, meets, misses, far, envelope):
        # Each ap-scan row, a1_quotient and mean_dist_power call asks for the
        # pieces of its window once (never on the closed form) and for the
        # distance of each window end at most once.
        oracle = make()
        monkeypatch.setattr(cli, "parse_set", lambda spec: oracle)

        def check(spec, queries, call):
            (cube,) = cli.parse_cubes(spec)
            del oracle.queries[:], oracle.distances[:]
            result = call(cube)
            assert oracle.queries == [cube.as_interval()] * queries, spec
            ends = set(cube.as_interval())
            assert set(oracle.distances) <= ends and len(oracle.distances) == len(set(oracle.distances)), spec
            return result

        out = tmp_path / "ap.csv"
        rows = [(meets, "3/2", "divergent", 1), (meets, "1/2", "gap_walk", 1),
                (misses, "1/2", "gap_walk", 1), (far, "1/2", "far_cube", 1)]
        if envelope:
            rows.append((envelope, "1/2", "closed_form", 0))
        for spec, alpha, path, queries in rows:
            argv = ["ap-scan", "--set", "-", "--cubes", spec, "--alpha", alpha, "--p", "2", "--out", str(out)]
            assert check(spec, queries, lambda cube: cli.main(argv)) == 0
            sidecar = json.loads((tmp_path / "ap.csv.meta.json").read_text())
            assert sidecar["mean_paths"][path] == 1, (spec, alpha)
        for alpha in (Fraction(1, 3), Fraction(3, 2)):
            check(meets, 1, lambda cube: a1_quotient(oracle, cube, alpha))
        for theta in (Fraction(-3, 2), Fraction(1, 2)):
            for spec in (meets, misses):
                check(spec, 1, lambda cube: mean_dist_power(oracle, cube, theta))
        if envelope:
            check(envelope, 0, lambda cube: a1_quotient(oracle, cube, Fraction(1, 3)))
            check(envelope, 0, lambda cube: mean_dist_power(oracle, cube, Fraction(1, 2)))


class TestMaximalPore:
    def test_lattice_unit(self):
        assert enumerate_pores(Z, UNIT, 10).maximal_pore_length() == Fraction(1, 2)

    def test_lattice_double(self):
        fam = enumerate_pores(Z, Cube.interval(0, 2), 10)
        assert fam.maximal_pore_length() == Fraction(1, 2)

    def test_origin_symmetric_window(self):
        # [-1, 0) misses {0} while its parent [-1, 1) meets it, so the
        # maximal pore has length 1 (confirmed by the brute-force oracle).
        pts = (Fraction(0),)
        fam = enumerate_pores(FinitePoints(pts), Cube.interval(-1, 1), 10)
        brute = brute_force_pores(pts, -1, 1, 10)
        assert max(b - a for a, b in brute) == 1
        assert fam.maximal_pore_length() == 1


class TestFractionLength:
    def test_lattice_examples(self):
        fam = enumerate_pores(Z, UNIT, 40)
        assert fraction_length(fam, FractionQuery(Fraction(1, 2), Side.LARGEST)).value == Fraction(1, 2)
        assert fraction_length(fam, FractionQuery(Fraction(1, 2), Side.SMALLEST)).value == Fraction(1, 4)
        assert fraction_length(fam, FractionQuery(Fraction(1, 10), Side.SMALLEST)).value == Fraction(1, 16)

    def test_refuses_when_tail_straddles(self):
        fam = enumerate_pores(Z, UNIT, 3)  # tail mass 1/8
        with pytest.raises(InsufficientDepthError):
            fraction_length(fam, FractionQuery(Fraction(1, 100), Side.SMALLEST))

    def test_positive_measure_set_brackets(self):
        oracle = BoxUnion((((Fraction(0),), (Fraction(1, 4),)),))
        fam = enumerate_pores(oracle, UNIT, 20)
        assert not fam.tail_is_pore_mass
        ans = fraction_length(fam, FractionQuery(Fraction(1, 2), Side.SMALLEST))
        assert not ans.exact
        # True value: pores carry mass 3/4, the bottom half is reached only
        # at the top length 1/2.
        assert ans.hi == Fraction(1, 2)
        assert ans.lo < ans.hi

    def test_monotonicity(self):
        fam = enumerate_pores(FinitePoints((0, Fraction(1, 3), 1)), UNIT, 35)
        ts = [Fraction(k, 10) for k in range(1, 10)]
        largest = [fraction_length(fam, FractionQuery(t, Side.LARGEST)).value for t in ts]
        smallest = [fraction_length(fam, FractionQuery(t, Side.SMALLEST)).value for t in ts]
        assert all(a >= b for a, b in zip(largest, largest[1:]))
        assert all(a <= b for a, b in zip(smallest, smallest[1:]))


def _random_family(rng, root, max_gen, tail_is_pore_mass):
    """A family as enumerate_pores returns them: its pore units and its
    tail add up to 2**max_gen."""
    left = (1 << max_gen) - rng.getrandbits(rng.randint(0, max_gen))
    gens = sorted(rng.sample(range(1, max_gen + 1), rng.randint(1, min(max_gen, 8))))
    counts = {}
    for g in gens:
        most = left >> (max_gen - g)
        k = most if g == gens[-1] else rng.randint(0, most)
        if k:
            counts[g] = k
            left -= k << (max_gen - g)
    tail = (1 << max_gen) - sum(k << (max_gen - g) for g, k in counts.items())
    return PoreFamily(root, counts, max_gen, tail, tail_is_pore_mass)


def _thresholds(rng, family):
    """Random thresholds, and thresholds that tie the tail or a prefix sum
    of either walk exactly."""
    J, tail = family.max_generation, family.tail
    units = [family.counts[g] << (J - g) for g in sorted(family.counts)]
    prefixes = []
    for start, walk in ((0, units), (0, units[::-1]), (tail, units[::-1])):
        cum = start
        for u in walk:
            cum += u
            prefixes.append(cum)
    ties = [p for p in prefixes + [tail, (1 << J) - tail] if 0 < p < 1 << J]
    ts = [Fraction(p, 1 << J) for p in rng.sample(ties, min(len(ties), 4))]
    den = rng.randint(2, 10**6)
    return ts + [Fraction(rng.randint(1, 99), 100), Fraction(rng.randint(1, den - 1), den)]


def _outcome(fn, family, query):
    try:
        answer = fn(family, query)
    except (InsufficientDepthError, PreconditionError, AssertionError) as err:
        return type(err), getattr(err, "tail_mass", None)
    return answer.lo, answer.hi, answer.exact


class TestIntegerWalk:
    """fraction_length's integer walk against the Fraction scans it
    replaced, kept in oracles.py."""

    def test_random_histograms_match_fraction_scans(self):
        rng = random.Random(16)
        roots = [UNIT, Cube.interval(-1, 1), envelope_cube(HH, 3)]
        kinds = set()
        for i in range(400):
            max_gen = 200 if i % 10 == 0 else rng.randint(1, 200)
            family = _random_family(rng, rng.choice(roots), max_gen, i % 2 == 0)
            for t in _thresholds(rng, family):
                for side in Side:
                    query = FractionQuery(t, side)
                    got = _outcome(fraction_length, family, query)
                    assert got == _outcome(fraction_length_reference, family, query), (family, query)
                    kinds.add(got[0] if isinstance(got[0], type) else got[2])
        # Exact answers, brackets and refusals all occurred.
        assert kinds == {True, False, InsufficientDepthError}

    @pytest.mark.parametrize(
        "oracle,window",
        [
            (Z, UNIT),
            (FinitePoints((0, Fraction(1, 3), 1)), UNIT),
            (Generated(HH, 6), envelope_cube(HH, 6)),
            (BoxUnion((((Fraction(0),), (Fraction(1, 4),)),)), UNIT),
            (BoxUnion(BOXES_1D), Cube.interval(Fraction(-1, 3), Fraction(4, 3))),
        ],
    )
    def test_enumerated_families_match_fraction_scans(self, oracle, window):
        for max_gen in (3, 12, 40):
            family = enumerate_pores(oracle, window, max_gen)
            for t in [Fraction(k, 12) for k in range(1, 12)] + [Fraction(1, 1000), Fraction(999, 1000)]:
                for side in Side:
                    query = FractionQuery(t, side)
                    assert _outcome(fraction_length, family, query) == _outcome(
                        fraction_length_reference, family, query
                    )


class TestTilde:
    def test_lattice_always_one(self):
        comps = components(Z, 0, 1)
        for t in (Fraction(1, 10), Fraction(1, 2), Fraction(9, 10)):
            for side in Side:
                assert tilde_fraction_length(comps, (0, 1), FractionQuery(t, side)).value == 1

    def test_generated_level_one(self):
        g = Generated(HALF, 1)
        comps = components(g, 0, Fraction(5, 2))
        win = (0, Fraction(5, 2))
        q = FractionQuery(Fraction(1, 2), Side.LARGEST)
        assert tilde_fraction_length(comps, win, q).value == 1
        q = FractionQuery(Fraction(1, 2), Side.SMALLEST)
        assert tilde_fraction_length(comps, win, q).value == 1

    def test_empty_component_list(self):
        with pytest.raises(PreconditionError):
            tilde_fraction_length([], (0, 1), FractionQuery(Fraction(1, 2), Side.LARGEST))


class TestRatioCondition:
    def test_lattice_ratio_eight(self):
        report = ratio_condition(Z, [UNIT], Fraction(1, 10))
        assert report.max_ratio == 8
        row = report.rows[0]
        assert row.largest.value == Fraction(1, 2)
        assert row.smallest.value == Fraction(1, 16)
        assert row.depth_ok

    def test_scale_invariance_of_origin(self):
        oracle = FinitePoints((Fraction(0),))
        cubes = [Cube.interval(0, Fraction(2) ** k) for k in range(-5, 6)]
        report = ratio_condition(oracle, cubes, Fraction(1, 10))
        ratios = {row.ratio for row in report.rows}
        assert len(ratios) == 1

    def test_half_harmonic_envelopes_bounded(self):
        # Computed value: the per-envelope ratios alternate between 8 and 16,
        # far below the Markov-derived ceiling of 140.
        g = Generated(HH, 10)
        cubes = [envelope_cube(HH, m) for m in range(0, 11)]
        report = ratio_condition(g, cubes, Fraction(1, 10), max_gen=30)
        assert all(row.depth_ok for row in report.rows)
        assert report.max_ratio == 16
        assert report.max_ratio <= 140

    def test_disjoint_cube_skipped(self):
        report = ratio_condition(Z, [Cube.interval(Fraction(1, 4), Fraction(1, 2)), UNIT], Fraction(1, 10))
        assert "skipped" in report.rows[0].note
        assert report.rows[1].depth_ok

    def test_warns_outside_admissible_range(self):
        with pytest.warns(UserWarning):
            ratio_condition(Z, [UNIT], Fraction(1, 2))

    def test_csv_shape(self, capsys):
        # The ratio report's CSV is formatted by ls-ratio.
        assert cli.main(["ls-ratio", "--set", "lattice", "--cubes", "unit:[0,1)", "--s", "1/10"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "cube_id,s,L_s,S_s,ratio,depth_ok"
        assert lines[1].endswith("1/10,1/2,1/16,8/1,true")

    def test_deep_max_gen_keeps_the_row(self, capsys):
        # Below generation 40 the lattice's pores no longer move either threshold.
        rows = []
        for max_gen in ("40", "10000"):
            argv = ["ls-ratio", "--set", "lattice", "--cubes", "unit:[0,1)", "--s", "1/10", "--max-gen", max_gen]
            assert cli.main(argv) == 0
            rows.append(capsys.readouterr().out.strip().split("\n")[1])
        assert rows == ['"0:[0,1)",1/10,1/2,1/16,8/1,true'] * 2

    def test_single_threshold_extends_downward(self):
        # If the measured data satisfies the bound at one threshold, the
        # constant C0' (t')^-sigma covers every larger threshold as well.
        fam = enumerate_pores(Z, UNIT, 40)
        sigma = Fraction(2)
        t_prime = Fraction(1, 8)
        ts = [Fraction(k, 40) for k in range(1, 40)]
        data = {
            t: (
                fraction_length(fam, FractionQuery(t, Side.LARGEST)).value,
                fraction_length(fam, FractionQuery(t, Side.SMALLEST)).value,
            )
            for t in ts
        }
        c0_prime = max(
            L * t**sigma / S for t, (L, S) in data.items() if t <= t_prime
        )
        c0 = c0_prime * t_prime**-sigma
        for t, (L, S) in data.items():
            assert L <= c0 * t**-sigma * S


class TestWeakPorosity:
    def test_lattice_passes_with_three_quarters(self):
        res = weak_porosity_check(Z, UNIT, Fraction(1, 2), Fraction(1, 2))
        assert res.holds
        assert res.achieved_mass == Fraction(3, 4)
        assert res.threshold_length == Fraction(1, 4)

    def test_lattice_fails_at_four_fifths(self):
        res = weak_porosity_check(Z, UNIT, Fraction(4, 5), Fraction(1, 2))
        assert not res.holds
        assert res.achieved_mass == Fraction(3, 4)

    def test_disjoint_window_trivially_passes(self):
        res = weak_porosity_check(Z, Cube.interval(Fraction(1, 4), Fraction(1, 2)), Fraction(9, 10), Fraction(9, 10))
        assert res.holds
        assert res.achieved_mass == Fraction(1, 4)

    def test_constant_half_generator_fails(self):
        # Small pores dominate as the level grows; sigma = gamma = 1/2 fails
        # at every level from 2 on (computed trend, cf. the quantile scan).
        fractions_seen = []
        for level in range(2, 9):
            g = Generated(HALF, level)
            window = Cube.interval(*g.envelope)
            res = weak_porosity_check(g, window, Fraction(1, 2), Fraction(1, 2), max_gen=40)
            assert not res.holds
            fractions_seen.append(res.achieved_mass / window.side)
        assert max(fractions_seen) < Fraction(1, 2)

    def test_gamma_below_resolution_refused(self):
        with pytest.raises(InsufficientDepthError):
            weak_porosity_check(Z, UNIT, Fraction(1, 2), Fraction(1, 1024), max_gen=5)


def test_eq13_constant_values():
    # smallest k with t' + 2^-(k-2) < t
    assert eq13_constant(Fraction(1, 2), Fraction(1, 4)) == Fraction(1, 32)
    assert eq13_constant(Fraction(1, 10), Fraction(1, 20)) == Fraction(1, 128)
    with pytest.raises(PreconditionError):
        eq13_constant(Fraction(1, 4), Fraction(1, 2))
