"""One untimed pass of every benchmark workload, checked as ``bench/run.py``
checks each pass: the reports of every op must match ``bench/reference/`` and
hold the workload's invariants.  So a change to the library API the
benchmark calls (the ``BoxUnion`` corner form, ``Cube.interval``, the CLI
options) fails here instead of only when the benchmark runs.  One traced
pass checks the same under the benchmark's tracer.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_passes_the_benchmark_check(name, tmp_path):
    reference = json.loads((BENCH / "reference" / f"{name}.json").read_text())["ops"]
    ops = workloads.WORKLOADS[name].build(workloads.DEFAULT_SEED, tmp_path)
    checker = run.Checker(reference)
    tally = {"attempted": 0, "failed": 0}
    run.check_pass(ops, run.Pass(ops), checker, tally)
    assert checker.problems == []
    assert tally == {"attempted": len(ops), "failed": 0}


def _bindings():
    """id of every module attribute and class attribute of the package."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name != "poremetrics" and not name.startswith("poremetrics."):
            continue
        for attr, value in vars(module).items():
            out[(name, attr)] = id(value)
            if isinstance(value, type) and value.__module__.startswith("poremetrics"):
                out.update({(name, attr, a): id(v) for a, v in vars(value).items()})
    return out


def test_traced_pass_restores_every_attribute(tmp_path):
    # The tracer wraps functions and methods by name and skips the names the
    # package does not define; a traced deep-pores pass keeps its reports,
    # and uninstalling puts every patched attribute back.
    from poremetrics import pores
    from poremetrics.dyadic import Cube

    reference = json.loads((BENCH / "reference" / "deep-pores.json").read_text())["ops"]
    ops = workloads.WORKLOADS["deep-pores"].build(workloads.DEFAULT_SEED, tmp_path)
    before = _bindings()
    traced = tracer.Tracer()
    traced.install()
    try:
        assert pores.enumerate_pores.bench_traced
        assert not hasattr(pores, "enumerate_pore_cubes") and not hasattr(Cube, "children")
        passed = run.Pass(ops)
    finally:
        traced.uninstall()
    metrics, inside_s = traced.drain()
    assert _bindings() == before
    assert metrics["pores.enumerate_pores.calls"] > 0 and inside_s > 0
    assert metrics["dyadic.children.calls"] == 0
    checker = run.Checker(reference)
    tally = {"attempted": 0, "failed": 0}
    run.check_pass(ops, passed, checker, tally)
    assert checker.problems == []
    assert tally == {"attempted": len(ops), "failed": 0}
