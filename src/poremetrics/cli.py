"""Command-line surface: set generation, pore reports, ratio and porosity
checks, Muckenhoupt product sweeps, probability statistics, and the point-dump
figure data.

Exit codes: 0 success, 1 usage error (an option, selector or set-spec file
that does not parse), 2 precondition violation, 3 a depth limit prevented
certification (the message ends with the tail mass left undecided).  Output
files are byte-stable for a fixed command line; run metadata goes to a
separate ``.meta.json`` sidecar.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import warnings
from fractions import Fraction
from functools import cache
from itertools import chain, islice
from operator import add

from . import __version__
from .dyadic import Cube
from .errors import InsufficientDepthError, ParseError, PreconditionError
from .pores import enumerate_pores, ratio_condition, weak_porosity_check
from .porestats import (
    EXPECTATION_PRODUCT_BOUND,
    binomial_check,
    binomial_numerators,
    divergence_row,
    expectation_products,
    length_laws,
    moment_stream,
)
from .rationals import format_rational, format_ratio, parse_rational
from .setmodels import (
    ContractionSequence,
    FinitePoints,
    Generated,
    IntegerLattice,
    check_enumerable,
    envelope_lengths,
    load_set_spec,
    save_set_spec,
)
from .weights import MEAN_PATHS, ApQuery, ApScan, ap_product

SCHEMA = "pore-metrics/1"


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # A value such as -1/2 or -.5 is a negative number, not an option:
        # no option of these parsers starts with a dash and a digit.
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"not a rational number: {text!r}") from None


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"not an integer: {text!r}") from None


def _parse_sequence(rule: str, c: str | None) -> ContractionSequence:
    return ContractionSequence(rule, None if c is None else _rational(c))


def parse_set(spec: str):
    """Set selector: lattice | point:R | points:R1,R2,... |
    generated:RULE[:C]:LEVEL[:reflect] | a path to a set-spec JSON file."""
    if spec.endswith(".json") or spec.startswith("file:"):
        return load_set_spec(spec.removeprefix("file:"))
    if spec == "lattice":
        return IntegerLattice()
    if spec.startswith("point:"):
        return FinitePoints((_rational(spec[len("point:"):]),))
    if spec.startswith("points:"):
        parts = spec[len("points:"):].split(",")
        return FinitePoints(tuple(_rational(p) for p in parts))
    if spec.startswith("generated:"):
        parts = spec.split(":")[1:]
        reflect = parts[-1] == "reflect"
        if reflect:
            parts = parts[:-1]
        if len(parts) not in (2, 3):
            raise ParseError(f"cannot parse set spec {spec!r}: expected generated:RULE[:C]:LEVEL[:reflect]")
        c = _rational(parts[1]) if len(parts) == 3 else None
        return Generated(ContractionSequence(parts[0], c), _integer(parts[-1]), reflect)
    raise ParseError(f"cannot parse set spec {spec!r}")


_INTERVAL_RE = re.compile(r"^\[([^,]+),([^)]+)\)$")


def parse_cubes(spec: str, oracle=None) -> list[Cube]:
    """Cube family: unit:[a,b) | interval:[a,b) | dyadic:A..B | envelopes:A..B.

    An envelope range whose last window has ends past the interpreter's
    digit limit is refused before any length is drawn."""
    if spec.startswith(("unit:", "interval:")):
        body = spec.split(":", 1)[1]
        m = _INTERVAL_RE.match(body)
        if not m:
            raise ParseError(f"cannot parse interval {body!r}")
        return [Cube.interval(_rational(m.group(1)), _rational(m.group(2)))]
    if spec.startswith("dyadic:"):
        a, b = _parse_range(spec[len("dyadic:"):])
        return [Cube.interval(0, Fraction(2) ** k) for k in range(a, b + 1)]
    if spec.startswith("envelopes:"):
        if not isinstance(oracle, Generated):
            raise PreconditionError("envelope cubes need a generated set")
        a, b = _parse_range(spec[len("envelopes:"):])
        if a < 0:
            raise PreconditionError("level must be nonnegative")
        _check_envelope_level(b)
        return [Cube.interval(0, length) for length in islice(envelope_lengths(oracle.seq), a, b + 1)]
    raise ParseError(f"cannot parse cube spec {spec!r}")


def _one_cube(spec: str, oracle, command: str) -> Cube:
    cubes = parse_cubes(spec, oracle)
    if len(cubes) != 1:
        raise PreconditionError(f"{command} needs exactly one cube, got {len(cubes)}")
    return cubes[0]


def _parse_range(text: str) -> tuple[int, int]:
    a, _, b = text.partition("..")
    lo, hi = _integer(a), _integer(b if b else a)
    if hi < lo:
        raise PreconditionError("empty range")
    return lo, hi


def _emit(text: str, out: str | None, argv: list[str], meta=None) -> None:
    """Write the report to ``out`` (or stdout) and, with a file, the run's
    ``.meta.json`` sidecar: schema, argv, package version and ``meta``."""
    if out is None:
        sys.stdout.write(text)
        return
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(text)
    with open(out + ".meta.json", "w", encoding="utf-8") as fh:
        sidecar = {"schema": SCHEMA, "argv": argv, "version": __version__, **(meta or {})}
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _csv_cell(value) -> str:
    s = "" if value is None else str(value)
    if "," in s or '"' in s or "\n" in s:
        return '"' + s.replace('"', '""') + '"'
    return s


def _csv_text(header, rows) -> str:
    """The rows as CSV lines ending in "\n", byte for byte as
    ``csv.writer(..., lineterminator="\n")`` writes them: a cell holding
    ``,``, ``"`` or a newline is quoted with its quotes doubled, None is an
    empty cell, and a row of one empty cell is ``""``."""
    lines = []
    for row in chain([header], rows):
        line = ",".join(map(_csv_cell, row))
        lines.append('""' if not line and len(row) == 1 else line)
    return "\n".join(lines) + "\n"


def _digit_limit(what: str, limit: int) -> PreconditionError:
    return PreconditionError(
        f"{what} would need more than {limit} digits, "
        "the interpreter's limit for printing an integer (sys.get_int_max_str_digits)"
    )


def _check_digits(values, what: str) -> None:
    """Refuse a report whose integer or rational ``values`` have a numerator
    or denominator with more digits than the interpreter prints
    (``sys.get_int_max_str_digits()``, 0 for no limit), before any of it is
    printed."""
    limit = sys.get_int_max_str_digits()
    big = max(abs(x) for v in values for x in v.as_integer_ratio())
    # 2^(3 limit) < 10^limit, so shorter integers need no power of ten.
    if limit and big.bit_length() > 3 * limit and big >= 10**limit:
        raise _digit_limit(what, limit)


def _checked_rows(stream, levels: range, what: str) -> list:
    """The rows ``levels`` of an endless ``stream`` of integer tuples, each
    digit-checked as it is drawn: a table past the limit is refused at its
    first long row, and no row past that one is drawn."""
    rows = []
    for row in islice(stream, levels.start, levels.stop):
        _check_digits(row, what)
        rows.append(row)
    return rows


def _check_envelope_level(level: int) -> None:
    """Refuse the envelope window ``Q_level`` without drawing its length:
    ``|Q_m| = prod (2 + c_i) > 2^m`` for m >= 1, and ``2^m >= 10^limit``
    exactly when m reaches the bit length of ``10^limit`` (not a power of
    two), so from there on the window's right end is unprintable."""
    limit = sys.get_int_max_str_digits()
    if limit and level > 3 * limit and level >= (10**limit).bit_length():
        raise _digit_limit(f"envelope level {level}: the cube's ends", limit)


def _fmt_bound(v) -> str:
    if isinstance(v, Fraction):
        return format_rational(v)
    if v == math.inf:
        return "inf"
    return repr(float(v))


def cmd_gen_set(args, argv) -> int:
    oracle = Generated(_parse_sequence(args.rule, args.c), args.level, args.reflect)
    if args.spec_out:
        save_set_spec(oracle, args.spec_out)
    nums, den, envelope = oracle.numerators, oracle.den, oracle.envelope
    text = "\n".join([format_ratio(n, den) for n in nums]) + "\n"
    _emit(text, args.points_out, argv)
    if args.points_out:
        sys.stdout.write(
            f"{len(nums)} points, envelope [{format_rational(envelope[0])}, "
            f"{format_rational(envelope[1])}]\n"
        )
    return 0


def cmd_fig1(args, argv) -> int:
    bound = _rational(args.bound)
    groups = [
        ("c=1", ContractionSequence.constant(1)),
        ("half_harmonic", ContractionSequence.half_harmonic()),
        ("c=1/2", ContractionSequence.constant(Fraction(1, 2))),
    ]
    # Each group's level is the first whose envelope reaches the bound, from
    # one pass of the envelope lengths; every level is checked against the
    # cap before any group's points are built.
    levels = []
    for _, seq in groups:
        level = next(n for n, length in enumerate(envelope_lengths(seq)) if length >= bound)
        check_enumerable(level)
        levels.append(level)
    rows = []
    for (label, seq), level in zip(groups, levels):
        oracle = Generated(seq, level, True)
        # -bound <= n/den <= bound, cross-multiplied.
        den, top = oracle.den, bound.numerator * oracle.den
        for n in oracle.numerators:
            if abs(n * bound.denominator) <= top:
                rows.append([label, format_ratio(n, den), repr(n / den)])
    _emit(_csv_text(["sequence", "point", "value"], rows), args.out, argv)
    return 0


def cmd_pores(args, argv) -> int:
    oracle = parse_set(args.set)
    cube = _one_cube(args.cube, oracle, "pores")
    # A pore length or mass of generation g <= max_gen has a numerator and a
    # denominator below max(side's numerator, side's denominator) * 2^max_gen.
    side = cube.side
    _check_digits(
        [max(side.numerator, side.denominator) << args.max_gen],
        f"--max-gen {args.max_gen}: pore lengths",
    )
    family = enumerate_pores(oracle, cube, args.max_gen)
    if args.format == "json":
        payload = {
            "schema": SCHEMA,
            "window": str(cube),
            "max_generation": family.max_generation,
            "tail_mass": format_rational(family.tail_mass),
            "tail_is_pore_mass": family.tail_is_pore_mass,
            "entries": [
                {
                    "generation": g,
                    "length": format_rational(length),
                    "count": count,
                    "mass": format_rational(mass),
                }
                for g, length, count, mass in family.entries()
            ],
        }
        _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out, argv)
    else:
        rows = [
            ["pore", g, format_rational(length), count, format_rational(mass), "exact"]
            for g, length, count, mass in family.entries()
        ]
        rows.append(
            ["tail", "", "", "", format_rational(family.tail_mass),
             "pore-mass" if family.tail_is_pore_mass else "mixed"]
        )
        _emit(
            _csv_text(["kind", "generation", "length", "count", "mass", "certainty"], rows),
            args.out,
            argv,
        )
    return 0


def _ratio_row(r) -> dict:
    """One ls-ratio row as JSON cells; L_s, S_s and ratio are None unless exact."""
    return {
        "cube_id": r.cube_id,
        "L_s": format_rational(r.largest.value) if r.largest and r.largest.exact else None,
        "S_s": format_rational(r.smallest.value) if r.smallest and r.smallest.exact else None,
        "ratio": format_rational(r.ratio) if r.ratio is not None else None,
        "depth_ok": r.depth_ok,
        "note": r.note,
    }


def cmd_ls_ratio(args, argv) -> int:
    oracle = parse_set(args.set)
    cubes = parse_cubes(args.cubes, oracle)
    for i, cube in enumerate(cubes):
        _check_digits(cube.as_interval(), f"cube {i}: its ends")
    report = ratio_condition(oracle, cubes, _rational(args.s), args.max_gen)
    if args.format == "json":
        payload = {
            "schema": SCHEMA,
            "s": format_rational(report.s),
            "max_ratio": format_rational(report.max_ratio) if report.max_ratio is not None else None,
            "rows": [_ratio_row(r) for r in report.rows],
        }
        _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out, argv)
    else:
        # _csv_text writes None as an empty cell
        rows = [
            [c["cube_id"], format_rational(r.s), c["L_s"], c["S_s"], c["ratio"], "true" if r.depth_ok else "false"]
            for r, c in zip(report.rows, map(_ratio_row, report.rows))
        ]
        _emit(_csv_text(["cube_id", "s", "L_s", "S_s", "ratio", "depth_ok"], rows), args.out, argv)
    return 0


def cmd_ap_scan(args, argv) -> int:
    oracle = parse_set(args.set)
    cubes = parse_cubes(args.cubes, oracle)
    query = ApQuery(_rational(args.alpha), _rational(args.p))
    rows = []
    paths = dict.fromkeys(MEAN_PATHS, 0)
    scan = ApScan()
    for i, cube in enumerate(cubes):
        _check_digits(cube.as_interval(), f"cube {i}: its ends")
        res = ap_product(oracle, cube, query, args.max_gen, scan)
        if res.product.exact:
            _check_digits([res.product.lo], f"cube {i}: the exact product")
        paths[res.path] += 1
        rows.append(
            [
                f"{i}:{cube}",
                format_rational(query.alpha),
                format_rational(query.p),
                _fmt_bound(res.product.lo),
                _fmt_bound(res.product.hi),
                res.case,
            ]
        )
    _emit(
        _csv_text(["cube_id", "alpha", "p", "product_lo", "product_hi", "case_tag"], rows),
        args.out,
        argv,
        {"mean_paths": paths, "reused_rows": scan.reused},
    )
    return 0


def cmd_porosity(args, argv) -> int:
    oracle = parse_set(args.set)
    cube = _one_cube(args.cube, oracle, "porosity-check")
    _check_digits(cube.as_interval(), "the cube's ends")
    result = weak_porosity_check(
        oracle, cube, _rational(args.sigma), _rational(args.gamma), args.max_gen
    )
    payload = {
        "schema": SCHEMA,
        "window": str(cube),
        "sigma": args.sigma,
        "gamma": args.gamma,
        "holds": result.holds,
        "achieved_mass": format_rational(result.achieved_mass),
        "threshold_length": format_rational(result.threshold_length)
        if result.threshold_length is not None
        else None,
        "maximal_length": format_rational(result.maximal_length)
        if result.maximal_length is not None
        else None,
    }
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out, argv)
    return 0


def cmd_prob_stats(args, argv) -> int:
    if args.divergence_out and not args.divergence_t:
        raise ParseError("--divergence-out needs --divergence-t")
    seq = _parse_sequence(args.rule, args.c)
    lo, hi = _parse_range(args.levels)
    if lo < 0:
        raise PreconditionError("level must be nonnegative")
    constant_half = seq == ContractionSequence.constant(Fraction(1, 2))
    if args.divergence_t and not constant_half:
        raise PreconditionError("--divergence-t scans the constant-1/2 law only (--rule constant --c 1/2)")
    bound = repr(EXPECTATION_PRODUCT_BOUND)
    levels = range(lo, hi + 1)
    # Every cell of both reports is checked before either is written (the
    # levels parsed under the same digit limit): each moment row as the two
    # streams draw it, so a long table is refused at its first long row, and
    # then the products.  Both exponents keep every stage power rational
    # (c^2 and c^0), so a moment row is (EX, EXinv) as two coprime pairs.
    what = f"--levels {args.levels}: the moment table"
    moments = _checked_rows(map(add, moment_stream(seq, 1), moment_stream(seq, -1)), levels, what)
    products = _checked_rows(expectation_products(seq), levels, what)
    t = _rational(args.divergence_t) if args.divergence_t else None
    laws = islice(length_laws(seq, hi), lo, None) if constant_half else None
    rows, scan = [], []
    for level, (ex_n, ex_d, inv_n, inv_d), (pr_n, pr_d) in zip(levels, moments, products):
        binom = "na"
        if laws is not None:
            # One Bin(level, 1/5) row serves the divergence scan and the
            # binomial check; t is checked before the first law is drawn.
            binomial = binomial_numerators(level, Fraction(1, 5))
            if t is not None:
                scan.append(divergence_row(t, binomial))
            ok, _ = binomial_check(next(laws), binomial)
            binom = "true" if ok else "false"
        rows.append([level, f"{ex_n}/{ex_d}", f"{inv_n}/{inv_d}", f"{pr_n}/{pr_d}", bound, binom])
    if scan:
        _check_digits(
            [x for r in scan for x in (r.level, r.k_min, r.k_max, r.tilde_ratio)],
            f"--levels {args.levels}: the divergence scan",
        )
    _emit(
        _csv_text(["level", "EX", "EXinv", "product", "bound_e_pi2_75", "binom_ok"], rows),
        args.out,
        argv,
    )
    if t is not None:
        scan_rows = [[r.level, r.k_min, r.k_max, format_rational(r.tilde_ratio)] for r in scan]
        _emit(
            _csv_text(["level", "k_min", "k_max", "tilde_ratio"], scan_rows),
            args.divergence_out,
            argv,
        )
    return 0


@cache
def build_parser() -> _Parser:
    """The command-line parser, built on first use and shared by every later
    ``main`` call in the process: parsing leaves it unchanged, every default
    is immutable, and it reads ``sys.stdout``/``sys.stderr`` when it writes."""
    parser = _Parser(prog="pore-metrics", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-set", help="materialize a generated point set")
    p.add_argument("--rule", required=True, choices=ContractionSequence.RULES)
    p.add_argument("--c", help="contraction value for the constant rule, e.g. 1/2")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--reflect", action="store_true")
    p.add_argument("--spec-out", help="write a set-spec JSON file")
    p.add_argument("--points-out", help="write the point dump here instead of stdout")
    p.set_defaults(fn=cmd_gen_set)

    p = sub.add_parser("fig1", help="point dump of the three reference sequences")
    p.add_argument("--bound", default="8")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_fig1)

    p = sub.add_parser("pores", help="generation histogram of a window's pores")
    p.add_argument("--set", required=True)
    p.add_argument("--cube", required=True)
    p.add_argument("--max-gen", type=int, default=40)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_pores)

    p = sub.add_parser("ls-ratio", help="largest/smallest fraction lengths and their ratio")
    p.add_argument("--set", required=True)
    p.add_argument("--cubes", required=True)
    p.add_argument("--s", required=True)
    p.add_argument("--max-gen", type=int, default=40)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_ls_ratio)

    p = sub.add_parser("ap-scan", help="Muckenhoupt product bracket over a cube family")
    p.add_argument("--set", required=True)
    p.add_argument("--cubes", required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--p", required=True)
    p.add_argument("--max-gen", type=int, default=40)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_ap_scan)

    p = sub.add_parser("porosity-check", help="mass of long pores against sigma |Q0|")
    p.add_argument("--set", required=True)
    p.add_argument("--cube", required=True)
    p.add_argument("--sigma", required=True)
    p.add_argument("--gamma", required=True)
    p.add_argument("--max-gen", type=int, default=40)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_porosity)

    p = sub.add_parser("prob-stats", help="moment table of the gap-length law")
    p.add_argument("--rule", required=True, choices=ContractionSequence.RULES)
    p.add_argument("--c")
    p.add_argument("--levels", required=True, help="range A..B")
    p.add_argument("--out")
    p.add_argument("--divergence-t", help="also run the quantile divergence scan at this t")
    p.add_argument("--divergence-out")
    p.set_defaults(fn=cmd_prob_stats)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    failure = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            # The window commands' --max-gen, refused before any set or cube is read.
            if getattr(args, "max_gen", 1) < 1:
                raise PreconditionError("max_gen must be at least 1")
            code = args.fn(args, argv)
        except ParseError as err:
            code, failure = 1, f"error: {err}"
        except PreconditionError as err:
            code, failure = 2, f"precondition violated: {err}"
        except InsufficientDepthError as err:
            code, failure = 3, f"insufficient depth: {err}; tail mass {format_rational(err.tail_mass)}"
    for w in caught:
        sys.stderr.write(f"warning: {w.message}\n")
    if failure is not None:
        sys.stderr.write(failure + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
