"""One untimed pass of every benchmark workload, checked as ``bench/run.py``
checks each pass: the reports of every op must match ``bench/reference/`` and
hold the workload's invariants.  So a change to the library API the
benchmark calls (the ``BoxUnion`` corner form, ``Cube.interval``, the CLI
options) fails here instead of only when the benchmark runs.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
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
