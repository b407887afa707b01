#!/usr/bin/env python3
"""Record the reference reports the benchmark checks against.

    python3 bench/record.py [workload ...]

Runs one pass of each workload (default: all) with the default seed and
writes bench/reference/<workload>.json: per op, each report's label, kind,
digest of its exact cells and its bracketable values (see reports.py).
Record only on the commit whose outputs define correctness; the benchmark
then accepts reports that match these or are strictly more exact.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import reports  # noqa: E402
import workloads  # noqa: E402


def record_workload(workload, work: Path) -> dict:
    ops = workload.build(workloads.DEFAULT_SEED, work)
    results = [op.call() for op in ops]
    recorded = {}
    for op, result in zip(ops, results):
        out = op.collect(result)
        problems = op.invariants(out)
        if problems:
            raise SystemExit(f"{op.name}: {problems}")
        recorded[op.name] = [reports.record(r) for r in out]
    return {"workload": workload.name, "seed": workloads.DEFAULT_SEED, "ops": recorded}


def main(names) -> int:
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    (BENCH / "reference").mkdir(exist_ok=True)
    for name in names or workloads.WORKLOADS:
        work = Path(tempfile.mkdtemp(prefix=f"record-{name}-", dir=ROOT / ".bench_work"))
        try:
            payload = record_workload(workloads.WORKLOADS[name], work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        path = BENCH / "reference" / f"{name}.json"
        path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.relative_to(ROOT)} ({len(payload['ops'])} ops)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
