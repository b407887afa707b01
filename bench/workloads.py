"""The benchmark's workloads: the ops each one runs, built from a seed.

An op is one ``poremetrics.cli.main(argv)`` call or one public library call
(a composite op chains a few).  Ops look library functions up through their
module at call time, so the traced run's wrappers are found.

The seed varies values only, never sizes or the side of a path switch:
the alpha exponent (always a rational whose powers are irrational), the
t thresholds (dyadic denominators, so no threshold ties a law's odd-denominator
masses), the BoxUnion's right endpoint and the point-cloud points.  Pore
depths (<= 60 against > 60), law levels (<= 12 against > 12) and the oracle
kinds (point histogram against BFS) are fixed.  The ``scripts`` workload is
the command lines of ``scripts/run_*.py`` and does not depend on the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from poremetrics import cli, dyadic, pores, porestats, setmodels, weights
from reports import Report, csv_rows, csv_text, number

DEFAULT_SEED = 0
EXACT_LAW_LEVELS = range(8, 13)  # tilde_quantiles answers these from the exact law
SPLIT_HALF_LEVELS = range(13, 29)  # and these from the split-half engine


class OpFailure(Exception):
    """An op that ran but returned an unexpected exit code."""


@dataclass
class Op:
    name: str
    call: Callable[[], object]  # the timed part
    collect: Callable[[object], list]  # untimed: result -> reports
    invariants: Callable[[list], list] = lambda reports: []
    cli: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    seed_independent: bool
    build: Callable[[int, Path], list]


def fmt(x) -> str:
    """Cell text the CLI would print: p/q for rationals, 'inf', else repr."""
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if x == float("inf"):
        return "inf"
    return repr(float(x))


def cli_op(name, argv, outputs, stdout_kind=None, invariants=None) -> Op:
    """An op running one CLI command line; ``outputs`` lists (path, kind)."""
    argv = [str(a) for a in argv]

    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
        return code, buf.getvalue()

    def collect(result):
        code, stdout = result
        if code != 0:
            raise OpFailure(f"exit code {code}")
        reports = []
        for path, kind in outputs:
            reports.append(Report(path.name, kind, path.read_text(encoding="utf-8")))
            path.unlink()
            Path(str(path) + ".meta.json").unlink(missing_ok=True)
        if stdout_kind:
            reports.append(Report("stdout", stdout_kind, stdout))
        return reports

    return Op(name, call, collect, invariants or (lambda reports: []), cli=True)


# -- invariants: checked on every seed ---------------------------------------

def pores_invariants(measure: Fraction):
    """Pore rows are consistent and pore mass plus tail equals |Q0|."""

    def check(reports):
        rows = csv_rows(reports[0].text)
        total = Fraction(0)
        problems = []
        for row in rows:
            mass = Fraction(row["mass"])
            total += mass
            if row["kind"] == "pore":
                length = Fraction(row["length"])
                if length * (1 << int(row["generation"])) != measure:
                    problems.append(f"pore length {row['length']} is not |Q0| / 2^g")
                if mass != int(row["count"]) * length:
                    problems.append(f"pore mass {row['mass']} is not count * length")
        if total != measure:
            problems.append(f"pore mass plus tail is {fmt(total)}, not |Q0| = {fmt(measure)}")
        return problems

    return check


def ls_invariants(reports):
    problems = []
    for row in csv_rows(reports[0].text):
        if row["depth_ok"] != "true":
            problems.append(f"row {row['cube_id']} is not certified at this depth")
            continue
        big, small = Fraction(row["L_s"]), Fraction(row["S_s"])
        if small > big or Fraction(row["ratio"]) != big / small:
            problems.append(f"row {row['cube_id']}: ratio is not L_s / S_s with S_s <= L_s")
    return problems


def bracket_invariants(lo_col, hi_col, floor=None):
    """lo <= hi in every row, and hi >= floor when a floor is given."""

    def check(reports):
        problems = []
        for row in csv_rows(reports[0].text):
            lo, hi = number(row[lo_col]), number(row[hi_col])
            if lo > hi:
                problems.append(f"bracket [{row[lo_col]}, {row[hi_col]}] is inverted")
            if floor is not None and hi < floor:
                problems.append(f"upper end {row[hi_col]} is below {floor}")
        return problems

    return check


# -- scripts ------------------------------------------------------------------

def script_lines(out: Path) -> list:
    """(argv, outputs, stdout kind) for every command line of scripts/run_*.py."""
    o = out
    return [
        (["fig1", "--out", o / "reference_points.csv"], [(o / "reference_points.csv", "fig1")], None),
        (["gen-set", "--rule", "half_harmonic", "--level", "8",
          "--spec-out", o / "half_harmonic_8.json",
          "--points-out", o / "half_harmonic_8_points.txt"],
         [(o / "half_harmonic_8.json", "spec"), (o / "half_harmonic_8_points.txt", "points")], "text"),
        (["gen-set", "--rule", "constant", "--c", "1/2", "--level", "8",
          "--spec-out", o / "constant_half_8.json",
          "--points-out", o / "constant_half_8_points.txt"],
         [(o / "constant_half_8.json", "spec"), (o / "constant_half_8_points.txt", "points")], "text"),
        (["pores", "--set", "lattice", "--cube", "unit:[0,1)",
          "--max-gen", "30", "--out", o / "lattice_pores.csv"],
         [(o / "lattice_pores.csv", "pores")], None),
        (["ls-ratio", "--set", "lattice", "--cubes", "unit:[0,1)", "--s", "1/10",
          "--out", o / "lattice_ratio.csv"],
         [(o / "lattice_ratio.csv", "ls")], None),
        (["ls-ratio", "--set", o / "half_harmonic_8.json",
          "--cubes", "envelopes:0..8", "--s", "1/10", "--max-gen", "28",
          "--out", o / "half_harmonic_envelope_ratios.csv"],
         [(o / "half_harmonic_envelope_ratios.csv", "ls")], None),
        (["porosity-check", "--set", "lattice", "--cube", "unit:[0,1)",
          "--sigma", "1/2", "--gamma", "1/2", "--out", o / "lattice_porosity.json"],
         [(o / "lattice_porosity.json", "porosity")], None),
        (["porosity-check", "--set", o / "constant_half_8.json",
          "--cube", "envelopes:8..8", "--sigma", "1/2", "--gamma", "1/2",
          "--out", o / "constant_half_porosity.json"],
         [(o / "constant_half_porosity.json", "porosity")], None),
        (["ap-scan", "--set", "point:0", "--alpha", "1/2", "--p", "2",
          "--cubes", "dyadic:-20..20", "--out", o / "ap_origin_alpha_half.csv"],
         [(o / "ap_origin_alpha_half.csv", "ap")], None),
        (["ap-scan", "--set", "point:0", "--alpha", "3/2", "--p", "2",
          "--cubes", "dyadic:-10..10", "--out", o / "ap_origin_alpha_three_halves.csv"],
         [(o / "ap_origin_alpha_three_halves.csv", "ap")], None),
        (["ap-scan", "--set", "lattice", "--alpha", "1/3", "--p", "2",
          "--cubes", "dyadic:0..8", "--out", o / "ap_lattice.csv"],
         [(o / "ap_lattice.csv", "ap")], None),
        (["prob-stats", "--rule", "half_harmonic", "--levels", "0..200",
          "--out", o / "half_harmonic_moments.csv"],
         [(o / "half_harmonic_moments.csv", "moments")], None),
        (["prob-stats", "--rule", "constant", "--c", "1/2", "--levels", "0..40",
          "--out", o / "constant_half_moments.csv",
          "--divergence-t", "1/10",
          "--divergence-out", o / "constant_half_divergence.csv"],
         [(o / "constant_half_moments.csv", "moments"),
          (o / "constant_half_divergence.csv", "divergence")], None),
    ]


def build_scripts(seed: int, out: Path) -> list:
    ops = []
    for argv, outputs, stdout_kind in script_lines(out):
        kinds = {kind for _, kind in outputs}
        invariants = None
        if kinds == {"pores"}:
            invariants = pores_invariants(Fraction(1))
        elif kinds == {"ls"}:
            invariants = ls_invariants
        elif kinds == {"ap"}:
            invariants = bracket_invariants("product_lo", "product_hi", floor=1)
        ops.append(cli_op(f"{argv[0]} -> {outputs[0][0].name}", argv, outputs, stdout_kind, invariants))
    return ops


# -- envelope-ap --------------------------------------------------------------

ALPHAS = tuple(Fraction(a) for a in ("1/3", "1/5", "2/7", "3/7", "2/5", "1/7", "3/11", "2/9"))
ENVELOPE_LEVEL = 8
GENERATED = (
    ("half_harmonic", f"generated:half_harmonic:{ENVELOPE_LEVEL}", setmodels.ContractionSequence.half_harmonic()),
    ("constant", f"generated:constant:1/2:{ENVELOPE_LEVEL}", setmodels.ContractionSequence.constant(Fraction(1, 2))),
)


def a1_op(label, oracle, cube, alpha) -> Op:
    def call():
        return weights.a1_quotient(oracle, cube, alpha)

    def collect(result):
        rows = [["set", "window", "alpha", "value_lo", "value_hi"],
                [label, str(cube), fmt(alpha), fmt(result.lo), fmt(result.hi)]]
        return [Report(f"a1_{label}.csv", "a1", csv_text(rows))]

    return Op(f"a1_quotient {label}", call, collect, bracket_invariants("value_lo", "value_hi", floor=1))


def build_envelope_ap(seed: int, out: Path) -> list:
    alpha = ALPHAS[0] if seed == DEFAULT_SEED else random.Random(f"alpha:{seed}").choice(ALPHAS)
    ops = []
    for name, spec, seq in GENERATED:
        for m in range(ENVELOPE_LEVEL + 1):
            path = out / f"ap_{name}_{m}.csv"
            ops.append(cli_op(
                f"ap-scan {name} m={m}",
                ["ap-scan", "--set", spec, "--cubes", f"envelopes:{m}..{m}",
                 "--alpha", fmt(alpha), "--p", "2", "--out", path],
                [(path, "ap")],
                invariants=bracket_invariants("product_lo", "product_hi", floor=1),
            ))
    # a1_quotient on one set only: on both, two level-8 a1 ops of nearly
    # equal length would sit at the 90th percentile.
    name, _, seq = GENERATED[0]
    oracle = setmodels.Generated(seq, ENVELOPE_LEVEL)
    for m in range(ENVELOPE_LEVEL + 1):
        ops.append(a1_op(f"{name}_m{m}", oracle, setmodels.envelope_cube(seq, m), alpha))
    return ops


# -- deep-pores ---------------------------------------------------------------

DEEP_LEVEL = 10
CLOUDS = 24
CLOUD_POINTS = 24
CLOUD_MAX_GEN = 24
BOX_DEPTH = 16


def family_csv(family) -> str:
    """A pore family in the CLI's ``pores`` CSV layout."""
    rows = [["kind", "generation", "length", "count", "mass", "certainty"]]
    rows += [["pore", g, fmt(length), count, fmt(mass), "exact"]
             for g, length, count, mass in family.entries()]
    rows.append(["tail", "", "", "", fmt(family.tail_mass),
                 "pore-mass" if family.tail_is_pore_mass else "mixed"])
    return csv_text(rows)


def box_op(box, t) -> Op:
    """enumerate_pores on a BoxUnion (BFS, positive measure) and both fraction lengths."""
    window = dyadic.Cube.interval(0, 1)
    sides = (pores.Side.LARGEST, pores.Side.SMALLEST)

    def call():
        family = pores.enumerate_pores(box, window, BOX_DEPTH)
        return family, [pores.fraction_length(family, pores.FractionQuery(t, s)) for s in sides]

    def collect(result):
        family, answers = result
        rows = [["side", "t", "lo", "hi"]]
        rows += [[s.value, fmt(t), fmt(a.lo), fmt(a.hi)] for s, a in zip(sides, answers)]
        return [Report("box_pores.csv", "pores", family_csv(family)),
                Report("box_fraction.csv", "fraction", csv_text(rows))]

    def invariants(reports):
        return pores_invariants(Fraction(1))(reports) + bracket_invariants("lo", "hi")(reports[1:])

    return Op("box enumerate_pores+fraction_length", call, collect, invariants)


def cloud_points(rng: random.Random) -> list:
    """One jittered point per cell [i/n, (i+1)/n): the values vary with the
    seed, the BFS frontier (one cube per point from generation 6) does not."""
    n = CLOUD_POINTS
    pts = []
    for i in range(n):
        den = rng.randrange(501, 1000, 2)
        jitter = Fraction(rng.randrange(den // 4 + 1, 3 * den // 4), den)
        pts.append((i + jitter) / n)
    return pts


def build_deep_pores(seed: int, out: Path) -> list:
    rng = random.Random(f"deep-pores:{seed}")
    if seed == DEFAULT_SEED:
        box_hi, box_t = Fraction(1, 4), Fraction(1, 3)
    else:
        # Endpoints within 2^-12 of 1/4 and t in (1/3, 0.35) keep the pore
        # layout above generation 12, so the bracket stays (1/16, 1/2).
        box_hi = Fraction(1, 4) + Fraction(rng.randrange(1, 4096, 2), 1 << 24)
        box_t = Fraction(rng.randrange(343, 358, 2), 1024)
    hh = setmodels.ContractionSequence.half_harmonic()
    measure = setmodels.envelope_length(hh, DEEP_LEVEL)
    ops = []
    # max-gen 40 takes the numpy int64 histogram, 64 the pure-Python one.
    for max_gen in (40, 64):
        path = out / f"half_harmonic_{DEEP_LEVEL}_pores_{max_gen}.csv"
        ops.append(cli_op(
            f"pores half_harmonic:{DEEP_LEVEL} max-gen {max_gen}",
            ["pores", "--set", f"generated:half_harmonic:{DEEP_LEVEL}",
             "--cube", f"envelopes:{DEEP_LEVEL}..{DEEP_LEVEL}",
             "--max-gen", max_gen, "--out", path],
            [(path, "pores")],
            invariants=pores_invariants(measure),
        ))
    path = out / f"constant_half_{DEEP_LEVEL}_ratios.csv"
    ops.append(cli_op(
        f"ls-ratio constant:1/2:{DEEP_LEVEL} envelopes",
        ["ls-ratio", "--set", f"generated:constant:1/2:{DEEP_LEVEL}",
         "--cubes", f"envelopes:0..{DEEP_LEVEL}", "--s", "1/10", "--out", path],
        [(path, "ls")],
        invariants=ls_invariants,
    ))
    # A 1-D point cloud has no points_in_window, so pores takes the BFS path.
    for i in range(CLOUDS):
        spec = out / f"cloud_{i}.json"
        spec.write_text(json.dumps(
            {"type": "points", "points": [[fmt(p)] for p in cloud_points(rng)]}
        ))
        path = out / f"cloud_{i}_pores.csv"
        ops.append(cli_op(
            f"pores cloud {i}",
            ["pores", "--set", spec, "--cube", "unit:[0,1)",
             "--max-gen", CLOUD_MAX_GEN, "--out", path],
            [(path, "pores")],
            invariants=pores_invariants(Fraction(1)),
        ))
    box = setmodels.BoxUnion((((Fraction(0),), (box_hi,)),))
    ops.append(box_op(box, box_t))
    return ops


# -- quantile-laws ------------------------------------------------------------

class LawCache:
    """Exact laws for the invariant check, built once per run, untimed."""

    def __init__(self, seq):
        self.seq = seq
        self.laws = {}

    def __call__(self, level):
        if level not in self.laws:
            self.laws[level] = porestats.length_law(self.seq, level).masses
        return self.laws[level]


def quantile_invariants(level, queries, laws):
    def check(reports):
        problems = []
        for row, (t, side) in zip(csv_rows(reports[0].text), queries):
            value = number(row["value"])
            if not 0 < value <= 1:
                problems.append(f"level {level}: quantile {row['value']} outside (0, 1]")
                continue
            if level not in EXACT_LAW_LEVELS:
                continue
            masses = laws(level)
            if value not in masses:
                problems.append(f"level {level}: {row['value']} is not an atom of the law")
                continue
            # largest: P(X >= L) >= t > P(X > L); smallest: P(X <= L) >= t > P(X < L).
            if side == "largest":
                at = sum((m for x, m in masses.items() if x >= value), Fraction(0))
            else:
                at = sum((m for x, m in masses.items() if x <= value), Fraction(0))
            if not at >= t > at - masses[value]:
                problems.append(f"level {level}: {row['value']} is not the {side}-side quantile at {fmt(t)}")
        return problems

    return check


def quantile_op(seq, level, queries, laws) -> Op:
    def call():
        return porestats.tilde_quantiles(seq, level, queries)

    def collect(values):
        rows = [["level", "t", "side", "value"]]
        rows += [[level, fmt(t), side, fmt(v)] for (t, side), v in zip(queries, values)]
        return [Report(f"quantiles_{level}.csv", "quantiles", csv_text(rows))]

    return Op(f"tilde_quantiles level {level}", call, collect,
              quantile_invariants(level, queries, laws))


def binomial_op(level) -> Op:
    seq = setmodels.ContractionSequence.constant(Fraction(1, 2))

    def call():
        return porestats.binomial_check(porestats.length_law(seq, level))

    def collect(result):
        ok, max_dev = result
        rows = [["level", "ok", "max_dev"], [level, "true" if ok else "false", fmt(max_dev)]]
        return [Report("binomial.csv", "binomial", csv_text(rows))]

    def invariants(reports):
        (row,) = csv_rows(reports[0].text)
        return [] if row["ok"] == "true" and row["max_dev"] == "0/1" else [
            f"constant-1/2 law at level {level} is not binomial: {row}"
        ]

    return Op(f"binomial_check length_law constant 1/2 level {level}", call, collect, invariants)


def build_quantile_laws(seed: int, out: Path) -> list:
    if seed == DEFAULT_SEED:
        t_low, t_mid = Fraction(1, 10), Fraction(1, 2)
    else:
        rng = random.Random(f"quantile-laws:{seed}")
        t_low = Fraction(rng.randrange(51, 206, 2), 1024)
        t_mid = Fraction(rng.randrange(411, 614, 2), 1024)
    queries = [(t_low, "largest"), (t_low, "smallest"), (t_mid, "largest"), (t_mid, "smallest")]
    seq = setmodels.ContractionSequence.half_harmonic()
    laws = LawCache(seq)
    ops = [quantile_op(seq, level, queries, laws)
           for level in (*EXACT_LAW_LEVELS, *SPLIT_HALF_LEVELS)]
    # Two law checks make the op count odd, so the median falls inside one
    # op's samples instead of between two ops of different length.
    ops += [binomial_op(60), binomial_op(120)]
    return ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "scripts",
            "the CLI lines of scripts/run_*.py: end to end per ROADMAP; dyadic and point:0 A_p, shallow pores, the quadratic moment table and report formatting",
            True,
            build_scripts,
        ),
        Workload(
            "envelope-ap",
            "ap-scan on envelope windows 0..8 of both generated sets, a1_quotient on the half-harmonic ones: Fraction distance/components, profile integrals, rational_pow; no pores or laws",
            False,
            build_envelope_ap,
        ),
        Workload(
            "deep-pores",
            "pore histograms on both sides of the max-gen 60 numpy switch, envelope ls-ratio, BFS on 1-D point clouds and a BoxUnion; no weights or laws",
            False,
            build_deep_pores,
        ),
        Workload(
            "quantile-laws",
            "tilde_quantiles at levels 8..28 (exact law to 12, split-half beyond) and binomial law checks at levels 60, 120: the only load on the quantile engines",
            False,
            build_quantile_laws,
        ),
    )
}
