"""Repeatable mutation checks for the exact cores: the pore layer, the gap
walk of the weight means, the profile integral, the far-cube test, the
reuse of a scan row, the moment and product streams, the integer root, the
binomial rows, the CSV writer, the exactness of a ``Bracket`` and the
equality of generated sets and their sequences.

A mutant is one edit to the syntax tree of one function: the one node whose
source reads ``old`` becomes ``new`` (an expression where ``old`` is one,
else a statement).  The target is a module function, or a method,
classmethod or property named ``Class.attribute``.  The edited function is
compiled again, with its decorators, in its module's namespace and patched
in with ``monkeypatch``: a module function wherever a loaded module binds
the original, the package's callers and the test modules alike, and a class
attribute on its class.  The named check, a test of the suite run
in-process, must then fail with an ``AssertionError``.  The same round trip
without the edit must pass every check its mutants name, so a patch that
breaks a function by itself cannot pass for a kill, and an ``old`` that no
longer matches exactly one node of its function fails the table.  The
edits need the standard library only: ``ast``, ``inspect`` and ``compile``.
"""

import __future__
import ast
import inspect
import sys
import textwrap
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from types import ModuleType

import pytest
from hypothesis import Phase, given, settings

import test_cli
import test_integer_generated
import test_metamorphic
import test_pores
import test_porestats
import test_rationals
import test_setmodels
import test_weights
from poremetrics import cli, pores, porestats, rationals, setmodels, weights


def cell_rule():
    test_pores.TestCellRule().test_every_cell_matches_the_fraction_floor()


def random_unions():
    test_pores.TestPiecesMatchTheBfs().test_random_unions()


def divergent_cell_walk():
    for case in range(len(test_weights.TestDivergentCellWalk.CASES)):
        test_weights.TestDivergentCellWalk().test_matches_the_bfs(case, 12)


def integer_walk():
    test_pores.TestIntegerWalk().test_random_histograms_match_fraction_scans()


def random_gap_sets():
    test_weights.TestGapWalkMatchesPerComponent().test_random_sets()


def integer_profile():
    test_weights.TestIntegerProfileIntegral().test_random_profiles()


def interval_layouts():
    test_weights.TestScanReuse().test_interval_layouts_with_one_gap_walk()


def moment_reference():
    # The stream that test_a_skipped_cross_reduction_is_caught builds by hand.
    test_porestats.TestIntegerMomentStream().test_matches_fraction_reference_to_level_200(test_porestats.HH, 1)


def moment_products():
    test_porestats.TestKakeyaProduct().test_expectation_products_are_the_moment_products(test_porestats.HH)


def integer_roots():
    test_rationals.test_int_nth_root_exact_cases()
    test_rationals.test_int_nth_root_rejects_non_powers()
    test_rationals.test_int_nth_root_of_large_integers()
    test_rationals.test_int_nth_root_round_trip()


def affine_invariance():
    # A mutant only has to fail, so the failing example is not shrunk:
    # shrinking it would take about half the table's time.
    test = test_metamorphic.test_reports_are_invariant_under_positive_affine_maps.hypothesis.inner_test
    unshrunk = settings(test_metamorphic.SETTINGS, phases=(Phase.explicit, Phase.generate))
    unshrunk(given(test_metamorphic.cases())(test))()


def csv_text():
    # Hypothesis ties a test method to the first instance that runs it in a
    # thread, so each run takes a fresh instance in a fresh thread.
    with ThreadPoolExecutor(1) as pool:
        pool.submit(test_cli.TestCsvText().test_matches_csv_writer).result()


def binomial_rows():
    test_porestats.TestBinomialReduction().test_integer_rows_match_fraction_formula(Fraction(1, 5))


def bracket_exactness():
    test_rationals.test_bracket_exactness_is_read_from_its_ends()


def generated_equality():
    test_integer_generated.TestLazyPoints().test_equality_and_hash_follow_the_spec()


def sequence_equality():
    test_setmodels.test_sequence_equality_follows_rule_and_c()


@dataclass(frozen=True)
class Mutant:
    name: str
    module: object
    target: str  # a module function, or Class.attribute
    old: str
    new: str
    check: object


S = "(div << max_gen).bit_length() + div.bit_length()"

MUTANTS = (
    Mutant("m rounded down", pores, "_scaled_runs", "-(-(1 << s) // div)", "(1 << s) // div", cell_rule),
    Mutant("s one bit short", pores, "_scaled_runs", S, f"{S} - 1", cell_rule),
    Mutant("s without the div.bit_length() term", pores, "_scaled_runs", S, "(div << max_gen).bit_length()", cell_rule),
    Mutant(
        "covered cells dropped", pores, "_pore_family",
        "inside[j] += (y >> (max_gen - j)) - (x >> (max_gen - j)) - 1", "pass", random_unions,
    ),
    Mutant("closing flag ignored", pores, "cell_pore_profiles", "if s in closing: continue", "pass", random_unions),
    Mutant("opening flag ignored", pores, "cell_pore_profiles", "if t - 1 in opening: continue", "pass", random_unions),
    Mutant(
        "pores one generation too small", pores, "cell_pore_profiles",
        "m << max_gen", "m << max_gen + 1", divergent_cell_walk,
    ),
    Mutant(
        "fraction_length tail one unit high", pores, "fraction_length",
        "J, tail = family.max_generation, family.tail",
        "J, tail = family.max_generation, family.tail + 1", integer_walk,
    ),
    Mutant("zero-length gaps kept", weights, "_Gaps.of", "h > 0", "h >= 0", random_gap_sets),
    Mutant(
        "closing gap to hi dropped", weights, "_Gaps.of",
        "[*pieces, closing]", "pieces", random_gap_sets,
    ),
    Mutant("cross-run gap over the run's denominator", weights, "_Gaps.of", "math.lcm(d, div)", "div", random_gap_sets),
    Mutant("profile powers of unreduced quotients", weights, "_antiderivative", "math.gcd(n, d)", "1", integer_profile),
    Mutant(
        "profile peak at twice its height", weights, "profile_integral",
        "_antiderivative(h + d_left + d_right, 2 * den, e_num, e_den)",
        "_antiderivative(h + d_left + d_right, den, e_num, e_den)", integer_profile,
    ),
    # Not scale-free, so only the affine-invariance test sees it.
    Mutant(
        "far-cube test without the side", weights, "ap_product",
        "min(window.d_lo, window.d_hi) >= 2 * q0.side", "min(window.d_lo, window.d_hi) >= 2", affine_invariance,
    ),
    Mutant(
        "divergent row reused across interval layouts", weights, "ap_product",
        "not (divergent and any(r is not l for _, l, r in window.pieces))", "True", interval_layouts,
    ),
    Mutant(
        "moment stage without its numerator cross-reduction", porestats, "_times",
        "n, f_den = n // g, f_den // g", "pass", moment_reference,
    ),
    Mutant(
        "product factor 3 / (2 + c) read as 3 / 2", porestats, "expectation_products",
        "(2 * b + a) ** 2", "(2 * b + a) * (2 * b)", moment_products,
    ),
    Mutant(
        "root seed left at the float root", rationals, "int_nth_root",
        "int(m ** (1.0 / k) * (1 + 2.0**-40)) + 1", "int(m ** (1.0 / k))", integer_roots,
    ),
    Mutant(
        "one-empty-cell rule dropped", cli, "_csv_text",
        """'""' if not line and len(row) == 1 else line""", "line", csv_text,
    ),
    Mutant(
        "newlines left unquoted", cli, "_csv_cell",
        r"""',' in s or '"' in s or '\n' in s""", """',' in s or '"' in s""", csv_text,
    ),
    Mutant("binomial row from b ** n", porestats, "binomial_numerators", "(b - a) ** n", "b ** n", binomial_rows),
    Mutant("binomial ratio one factor short", porestats, "binomial_numerators", "n - k", "n - k - 1", binomial_rows),
    Mutant(
        "Bracket.exact without its Fraction test", rationals, "Bracket.exact",
        "isinstance(self.lo, Fraction) and self.lo == self.hi", "self.lo == self.hi", bracket_exactness,
    ),
    Mutant(
        "Generated equality without the reflection flag", setmodels, "Generated.__eq__",
        "(self.seq, self.level, self.with_reflection) == (other.seq, other.level, other.with_reflection)",
        "(self.seq, self.level) == (other.seq, other.level)", generated_equality,
    ),
    Mutant(
        "ContractionSequence equality without c", setmodels, "ContractionSequence.__eq__",
        "(self.rule, self.c) == (other.rule, other.c)", "self.rule == other.rule", sequence_equality,
    ),
)


def _node(source):
    statement = ast.parse(textwrap.dedent(source)).body[0]
    return statement.value if isinstance(statement, ast.Expr) else statement


def recompiled(function, old=None, new=None):
    """``function`` compiled again from its source in its module's
    namespace, with the one node reading ``old`` replaced by ``new``."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(function)))
    if old is not None:
        target, replacement, hits = ast.unparse(_node(old)), _node(new), 0
        for parent in ast.walk(tree):
            for field, value in ast.iter_fields(parent):
                children = value if isinstance(value, list) else [value]
                for i, child in enumerate(children):
                    if isinstance(child, (ast.expr, ast.stmt)) and ast.unparse(child) == target:
                        children[i] = ast.copy_location(replacement, child)
                        hits += 1
                if not isinstance(value, list) and children[0] is not value:
                    setattr(parent, field, children[0])
        assert hits == 1, f"{target!r} matches {hits} nodes of {function.__name__}"
        ast.fix_missing_locations(tree)
    code = compile(
        tree, inspect.getsourcefile(function), "exec",
        flags=__future__.annotations.compiler_flag, dont_inherit=True,
    )
    namespace = {}
    exec(code, function.__globals__, namespace)
    return namespace[function.__name__]


def patch_everywhere(monkeypatch, original, replacement):
    """Rebind every module attribute that holds ``original``."""
    bound = 0
    for module in list(sys.modules.values()):
        for name, value in list(getattr(module, "__dict__", {}).items()):
            if value is original:
                monkeypatch.setattr(module, name, replacement)
                bound += 1
    assert bound


def patch_target(monkeypatch, module, target, old=None, new=None):
    """Replace ``target`` of ``module`` by its recompiled, and with ``old``
    given mutated, definition.  A class attribute is read raw from the
    class, so a classmethod or property keeps its kind: its source starts
    with the decorator."""
    *path, name = target.split(".")
    owner = module
    for part in path:
        owner = getattr(owner, part)
    original = vars(owner)[name]
    function = getattr(original, "fget", None) or getattr(original, "__func__", original)
    replacement = recompiled(function, old, new)
    if isinstance(owner, ModuleType):
        patch_everywhere(monkeypatch, original, replacement)
    else:
        assert type(replacement) is type(original)
        monkeypatch.setattr(owner, name, replacement)


UNMUTATED = sorted({(m.module, m.target, m.check) for m in MUTANTS}, key=lambda t: (t[1], t[2].__name__))


@pytest.mark.parametrize(
    "module,target,check", UNMUTATED, ids=[f"{target}-{check.__name__}" for _, target, check in UNMUTATED]
)
def test_unmutated_round_trip_passes(monkeypatch, module, target, check):
    patch_target(monkeypatch, module, target)
    check()


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_is_killed(monkeypatch, mutant):
    patch_target(monkeypatch, mutant.module, mutant.target, mutant.old, mutant.new)
    with pytest.raises(AssertionError):
        mutant.check()
