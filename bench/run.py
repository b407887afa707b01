#!/usr/bin/env python3
"""pore-metrics benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload scripts --seed 0 --seconds 25 --trace 0

Run it from anywhere inside a source checkout; it imports ``poremetrics`` from
the checkout's ``src/`` and keeps its temporary files under ``.bench_work/``,
which it removes.  It uses the standard library and what the package itself
imports.

``--trace 0`` times set-up in fresh processes, then runs untraced passes over
the workload's ops and prints the end-to-end metrics.  Times are normalised
to a fixed machine speed (speed.py); the raw pass times are printed too.
``--trace 1`` alternates untraced and traced passes and prints the per-layer
metrics (tracer.py).  After each pass, outside the timed region, every op's
reports are checked: against the recorded reports (reference/) for the
default seed and for the seed-independent ``scripts`` workload, and against
invariants on every seed.  The last line of standard output is one JSON
object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from reports import compare, parse
from speed import SpeedProbe
from tracer import PER_LAYER, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference"

MIN_PASSES = 3
MIN_OP_SAMPLES = 100  # so that at least ten op samples lie beyond p90
MIN_SETUP_SAMPLES = 7
LAST_PASS_START_S = 140  # never start a pass after this, so a run ends within 180 s
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("pass_ratio", "ratio"),
    ("inexact_share", "ratio"),
    ("bracket_rel_width_max", "ratio"),
)
TRACE_SUMMARY = (
    ("trace_overhead_s", "s"),
    ("trace.pass_s", "s"),
    ("trace.self_s", "s"),
    ("trace.harness_s", "s"),
    ("cli.report_bytes", "bytes"),
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import the package, build the inputs and exit (times setup_s)")
    return parser.parse_args(argv)


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


# -- checking -----------------------------------------------------------------

class Checker:
    """Checks every op outcome and accumulates the exactness metrics."""

    def __init__(self, reference):
        self.reference = reference
        self.first_digests = {}
        self.results = 0
        self.inexact = 0
        self.max_rel_width = 0.0
        self.cli_bytes = 0
        self.problems = []

    def check(self, op, result, error) -> bool:
        problems = [error] if error else self._problems(op, result)
        self.problems += [f"{op.name}: {p}" for p in problems]
        return not problems

    def _problems(self, op, result) -> list:
        try:
            reports = op.collect(result)
            parsed = [parse(r) for r in reports]
            problems = list(op.invariants(reports))
            if self.reference is not None:
                recorded = self.reference.get(op.name)
                if recorded is None:
                    problems.append("no recorded reports for this op")
                else:
                    problems += compare(reports, recorded, parsed)
        except Exception as err:  # a report that cannot be read fails its op
            return [f"{type(err).__name__}: {err}"]
        digests = [hashlib.sha256(r.text.encode()).hexdigest() for r in reports]
        if self.first_digests.setdefault(op.name, digests) != digests:
            problems.append("reports differ from the first pass of this run")
        for p in parsed:
            for value in p.results:
                self.results += 1
                if not value.exact:
                    self.inexact += 1
                    width = value.rel_width()
                    if width is not None:
                        self.max_rel_width = max(self.max_rel_width, width)
        if op.cli:
            self.cli_bytes += sum(len(r.text.encode()) for r in reports)
        return problems


# -- passes -------------------------------------------------------------------

class Pass:
    """One pass over the ops: each op's time span and outcome."""

    def __init__(self, ops):
        clock = time.perf_counter
        self.spans, self.outcomes = [], []
        for op in ops:
            t0 = clock()
            try:
                result, error = op.call(), None
            except Exception:  # a raising op counts as failed; the pass goes on
                result, error = None, traceback.format_exc(limit=4).strip()
            self.spans.append((t0, clock()))
            self.outcomes.append((result, error))
        self.raw_seconds = sum(t1 - t0 for t0, t1 in self.spans)

    def normalise(self, probe: SpeedProbe):
        self.times = [probe.normalise(t0, t1) for t0, t1 in self.spans]
        self.seconds = sum(self.times)


def check_pass(ops, run: Pass, checker, tally):
    for op, (result, error) in zip(ops, run.outcomes):
        tally["attempted"] += 1
        if not checker.check(op, result, error):
            tally["failed"] += 1


class SetupTimer:
    """setup_s samples: fresh interpreter start until the inputs are built.

    One sample is taken before the first pass and one after each pass, so
    that the samples spread over the run like the op samples do."""

    def __init__(self, args):
        self.cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                    "--seed", str(args.seed), "--setup-only"]
        self.spans = []
        self.sample()  # the first start only warms caches
        self.spans.clear()

    def sample(self):
        t0 = time.perf_counter()
        proc = subprocess.run(self.cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        self.spans.append((t0, time.perf_counter()))
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr}")

    def normalised(self, probe: SpeedProbe) -> list:
        # The child runs beside the probe's samples, not through them.
        return [probe.normalise(t0, t1, own=False) for t0, t1 in self.spans]


def untraced_run(ops, checker, tally, seconds, setup: SetupTimer):
    """Passes until the run has lasted ``seconds`` and made enough op samples;
    returns them and the setup_s samples, normalised."""
    start = time.perf_counter()
    min_passes = max(MIN_PASSES, math.ceil(MIN_OP_SAMPLES / len(ops)))
    passes = []
    with SpeedProbe() as probe:
        setup.sample()
        while True:
            passes.append(Pass(ops))
            check_pass(ops, passes[-1], checker, tally)
            setup.sample()
            projected = time.perf_counter() - start + statistics.median(p.raw_seconds for p in passes)
            if projected > LAST_PASS_START_S:
                break
            if len(passes) >= min_passes and projected > seconds:
                break
        while len(setup.spans) < MIN_SETUP_SAMPLES:
            setup.sample()
    for p in passes:
        p.normalise(probe)
    return passes, setup.normalised(probe)


def op_percentiles(passes) -> tuple:
    """p50 and p90 of op latency over the run's samples.  The median sits
    among many ops of similar length, whose samples it pools.  The 90th
    percentile sits among a few long ops of very different lengths, where a
    single noisy sample would decide between two of them, so for it each
    sample is taken as its op's median over the passes."""
    samples = [t for p in passes for t in p.times]
    medians = [statistics.median(times) for times in zip(*(p.times for p in passes))]
    return statistics.median(samples), statistics.quantiles(
        [m for m in medians for _ in passes], n=10)[8]


def traced_run(ops, checker, tally, seconds):
    start = time.perf_counter()
    tracer = Tracer()
    untraced, traced, inside, layers = [], [], [], []
    # Untraced and traced passes alternate, so a change in machine speed
    # shows in both alike.
    with SpeedProbe() as probe:
        while True:
            untraced.append(Pass(ops))
            check_pass(ops, untraced[-1], checker, tally)
            bytes_before = checker.cli_bytes
            tracer.install()
            try:
                traced.append(Pass(ops))
            finally:
                tracer.uninstall()
            metrics, roots_s = tracer.drain()
            check_pass(ops, traced[-1], checker, tally)
            metrics["cli.report_bytes"] = checker.cli_bytes - bytes_before
            inside.append(roots_s)
            layers.append(metrics)
            projected = (time.perf_counter() - start
                         + statistics.median(p.raw_seconds for p in untraced)
                         + statistics.median(p.raw_seconds for p in traced))
            if projected > seconds or projected > LAST_PASS_START_S:
                break
    for p in untraced + traced:
        p.normalise(probe)
    out = {name: statistics.fmean(m[name] for m in layers) for name, _ in PER_LAYER}
    raw_traced = statistics.fmean(p.raw_seconds for p in traced)
    out.update({
        "trace_overhead_s": (statistics.median(p.seconds for p in traced)
                             - statistics.median(p.seconds for p in untraced)),
        "trace.pass_s": raw_traced,
        "trace.self_s": statistics.fmean(inside),
        "trace.harness_s": raw_traced - statistics.fmean(inside),
        "cli.report_bytes": statistics.fmean(m["cli.report_bytes"] for m in layers),
    })
    units = dict(PER_LAYER + list(TRACE_SUMMARY))
    info = (f"untraced passes={len(untraced)} traced passes={len(traced)}; per-layer values "
            f"are means per traced pass, in raw seconds")
    return out, units, info


# -- environment --------------------------------------------------------------

def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "poremetrics").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def environment() -> str:
    import numpy

    return (f"python={platform.python_version()} numpy={numpy.__version__} "
            f"nproc={os.cpu_count()} blas_threads=1 commit={git_commit()} "
            f"src_sha256={source_digest()}")


# -- main ---------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    # Fixed code paths: ap-scan reads PORE_METRICS_JOBS, and an inherited value
    # would move it onto threads; BLAS threads in the split-half engine's dot
    # products add load and spread but no speed on a small box.  Set before
    # numpy is imported; the set-up processes inherit them.
    os.environ.pop("PORE_METRICS_JOBS", None)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "poremetrics" / "__init__.py").is_file():
        return fail(f"no poremetrics sources at {SRC}; run inside a source checkout")
    sys.path.insert(0, str(SRC))
    import poremetrics

    if Path(poremetrics.__file__).resolve().parent != SRC / "poremetrics":
        return fail(f"imported poremetrics from {poremetrics.__file__}, not {SRC}")
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        return fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))
    try:
        if args.setup_only:
            workload.build(args.seed, work)
            return 0
        return measure(args, workload, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, workload, work) -> int:
    import workloads

    reference = None
    if workload.seed_independent or args.seed == workloads.DEFAULT_SEED:
        ref_path = REFERENCE / f"{workload.name}.json"
        if not ref_path.is_file():
            return fail(f"missing recorded reports {ref_path}")
        reference = json.loads(ref_path.read_text())["ops"]

    setup = SetupTimer(args) if args.trace == 0 else None
    ops = workload.build(args.seed, work)
    checker = Checker(reference)
    tally = {"attempted": 0, "failed": 0}

    if args.trace == 0:
        passes, setup_times = untraced_run(ops, checker, tally, args.seconds, setup)
        op_times = [t for p in passes for t in p.times]
        p50, p90 = op_percentiles(passes)
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(p.seconds for p in passes),
            "op_p50_ms": p50 * 1e3,
            "op_p90_ms": p90 * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "pass_ratio": (tally["attempted"] - tally["failed"]) / tally["attempted"],
            "inexact_share": checker.inexact / checker.results,
            "bracket_rel_width_max": checker.max_rel_width,
        }
        units = dict(END_TO_END)
        info = (f"passes={len(passes)} ops/pass={len(ops)} op samples={len(op_times)} "
                f"beyond p90={sum(t > p90 for t in op_times)} setup samples={len(setup_times)} "
                f"results/pass={checker.results // len(passes)}\n"
                f"# raw pass s={[round(p.raw_seconds, 3) for p in passes]} "
                f"normalised={[round(p.seconds, 3) for p in passes]}")
    else:
        metrics, units, info = traced_run(ops, checker, tally, args.seconds)

    for problem in checker.problems[:20]:
        print(f"bench: FAILED {problem}", file=sys.stderr)
    print(f"# workload={workload.name} seed={args.seed} trace={args.trace} {info}")
    print(f"# {environment()}")
    for name, value in metrics.items():
        print(f"{name:44s} {value:>18.6g} {units[name]}")
    print(json.dumps({
        "correct": tally["failed"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
