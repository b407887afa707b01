#!/usr/bin/env python3
"""Self-test of the benchmark's own machinery.

    python3 bench/selftest.py

1. The output check: fresh reports of two cheap ``scripts`` ops pass the
   check against the recorded reports; a one-digit change to an exact cell
   (inside and outside a bracket column), a disjoint bracket and a new exact
   value outside its recorded bracket are caught; a narrower overlapping
   bracket and a new exact value inside the recorded bracket are accepted.
2. The ``scripts`` workload still runs exactly the command lines of
   ``scripts/run_*.py``.
3. ``BENCHMARK.json`` names the metrics and workloads that run.py, tracer.py
   and workloads.py produce.

Exits 0 when every expectation holds.
"""

import contextlib
import importlib.util
import io
import json
import re
import shutil
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import reports  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

failures = []


def expect(label: str, problems: list, caught: bool):
    ok = bool(problems) == caught
    verdict = "caught" if problems else "accepted"
    print(f"{'ok  ' if ok else 'FAIL'} {label}: {verdict}{': ' + problems[0] if problems else ''}")
    if not ok:
        failures.append(label)


def edited(report, old: str, new: str):
    if old not in report.text:
        raise SystemExit(f"selftest: {old!r} not found in {report.label}")
    return reports.Report(report.label, report.kind, report.text.replace(old, new, 1))


def check_output_check(work: Path):
    recorded = json.loads((BENCH / "reference" / "scripts.json").read_text())["ops"]
    ops = {op.name: op for op in workloads.build_scripts(workloads.DEFAULT_SEED, work)}
    ap_name, pores_name = "ap-scan -> ap_lattice.csv", "pores -> lattice_pores.csv"
    (ap,) = ops[ap_name].collect(ops[ap_name].call())
    (pore,) = ops[pores_name].collect(ops[pores_name].call())
    rec_ap, rec_pores = recorded[ap_name], recorded[pores_name]

    expect("fresh ap-scan report", reports.compare([ap], rec_ap), caught=False)
    expect("fresh pores report", reports.compare([pore], rec_pores), caught=False)

    # ap_lattice.csv row 2 is exact (9/8), rows 0, 1 and 3.. are brackets.
    rows = ap.text.splitlines()
    exact_row, bracket_row = rows[3], rows[1]
    lo, hi = bracket_row.split(",")[-3:-1]
    expect("one digit changed in an exact bracket-column cell",
           reports.compare([edited(ap, exact_row, exact_row.replace(",9/8,", ",8/8,", 1))], rec_ap),
           caught=True)
    mass = pore.text.splitlines()[1].split(",")[4]
    digit = re.search(r"\d", mass)
    changed = mass[:digit.start()] + str((int(digit.group()) + 1) % 10) + mass[digit.end():]
    expect("one digit changed in an exact pore-mass cell",
           reports.compare([edited(pore, f",{mass},", f",{changed},")], rec_pores), caught=True)
    expect("bracket moved to be disjoint from the recorded one",
           reports.compare([edited(ap, f"{lo},{hi}", f"{float(hi) * 1.001!r},{float(hi) * 1.002!r}")], rec_ap),
           caught=True)
    expect("new exact value outside the recorded bracket",
           reports.compare([edited(ap, f"{lo},{hi}", "10/9,10/9")], rec_ap), caught=True)
    expect("narrower overlapping bracket",
           reports.compare([edited(ap, f"{lo},{hi}", f"{(float(lo) + float(hi)) / 2!r},{hi}")], rec_ap),
           caught=False)
    expect("new exact value inside the recorded bracket",
           reports.compare([edited(ap, f"{lo},{hi}", "9/8,9/8")], rec_ap), caught=False)

    # A split-half float reads as the bracket v(1 -+ 1e-12).
    text = "level,t,side,value\n13,1/10,largest,0.8708333333333328\n"
    rec = [reports.record(reports.Report("q.csv", "quantiles", text))]
    expect("split-half float replaced by its exact atom 209/240",
           reports.compare([reports.Report("q.csv", "quantiles", text.replace("0.8708333333333328", "209/240"))], rec),
           caught=False)
    expect("split-half float replaced by a neighbouring atom",
           reports.compare([reports.Report("q.csv", "quantiles", text.replace("0.8708333333333328", "871/1000"))], rec),
           caught=True)


def check_script_lines(work: Path):
    issued = []
    for script in sorted((ROOT / "scripts").glob("run_*.py")):
        spec = importlib.util.spec_from_file_location(f"bench_{script.stem}", script)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        module.cli = lambda argv: issued.append([str(a) for a in argv]) or 0
        with contextlib.redirect_stdout(io.StringIO()):
            module.run(work)
    ours = [[str(a) for a in argv] for argv, _, _ in workloads.script_lines(work)]
    problems = [] if issued == ours else [f"scripts issue {len(issued)} lines, the workload runs {len(ours)} (or they differ)"]
    expect("scripts workload differs from scripts/run_*.py", problems, caught=False)


def check_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [(m["name"], m["unit"]) for m in spec["end_to_end"]] != list(run.END_TO_END):
        problems.append("end_to_end metrics differ from run.END_TO_END")
    if [(m["name"], m["unit"]) for m in spec["per_layer"]] != list(tracer.PER_LAYER) + list(run.TRACE_SUMMARY):
        problems.append("per_layer metrics differ from tracer.PER_LAYER + run.TRACE_SUMMARY")
    if {w["name"]: w["why"] for w in spec["workloads"]} != {n: w.why for n, w in workloads.WORKLOADS.items()}:
        problems.append("workloads differ from workloads.WORKLOADS")
    expect("BENCHMARK.json out of step with the benchmark code", problems, caught=False)


def main() -> int:
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=ROOT / ".bench_work"))
    try:
        check_output_check(work)
        check_script_lines(work)
        check_benchmark_json()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(failures)} failed" if failures else "all self-test expectations hold")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
