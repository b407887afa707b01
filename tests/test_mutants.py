"""Repeatable mutation checks for the exact cores, starting with the pore
layer.

A mutant is one edit to the syntax tree of one function: the one node whose
source reads ``old`` becomes ``new`` (an expression where ``old`` is one,
else a statement).  The edited function is compiled again in its module's
namespace and patched in with ``monkeypatch`` wherever a loaded module binds
the original, the package's callers and the test modules alike; the named
check, a test of the suite run in-process, must then fail with an
``AssertionError``.  The same round trip without the edit must pass every
check its mutants name, so a patch that breaks a function by itself cannot
pass for a kill, and an ``old`` that no longer matches exactly one node of
its function fails the table.  Standard library only: ``ast``, ``inspect``
and ``compile``.
"""

import __future__
import ast
import inspect
import sys
import textwrap
from dataclasses import dataclass

import pytest

import test_pores
import test_weights
from poremetrics import pores


def cell_rule():
    test_pores.TestCellRule().test_every_cell_matches_the_fraction_floor()


def random_unions():
    test_pores.TestPiecesMatchTheBfs().test_random_unions()


def divergent_cell_walk():
    for case in range(len(test_weights.TestDivergentCellWalk.CASES)):
        test_weights.TestDivergentCellWalk().test_matches_the_bfs(case, 12)


def integer_walk():
    test_pores.TestIntegerWalk().test_random_histograms_match_fraction_scans()


@dataclass(frozen=True)
class Mutant:
    name: str
    module: object
    function: str
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


UNMUTATED = sorted({(m.module, m.function, m.check) for m in MUTANTS}, key=lambda t: (t[1], t[2].__name__))


@pytest.mark.parametrize(
    "module,function,check", UNMUTATED, ids=[f"{function}-{check.__name__}" for _, function, check in UNMUTATED]
)
def test_unmutated_round_trip_passes(monkeypatch, module, function, check):
    original = getattr(module, function)
    patch_everywhere(monkeypatch, original, recompiled(original))
    check()


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_is_killed(monkeypatch, mutant):
    original = getattr(mutant.module, mutant.function)
    patch_everywhere(monkeypatch, original, recompiled(original, mutant.old, mutant.new))
    with pytest.raises(AssertionError):
        mutant.check()
