#!/usr/bin/env python3
"""Reproduce the reference-set experiments: point dumps, pore histograms,
ratio reports and porosity checks for the integer lattice and the two
generated sets (constant 1/2 and half-harmonic contractions).

Writes CSV/JSON artifacts under out/ (override with --out-dir).  Everything
is routed through the CLI so the files match what the command line produces.
"""

import argparse
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from poremetrics.cli import main as cli  # noqa: E402


def command_lines(out_dir: Path) -> list[list[str]]:
    return [
        ["fig1", "--out", str(out_dir / "reference_points.csv")],
        [
            "gen-set", "--rule", "half_harmonic", "--level", "8",
            "--spec-out", str(out_dir / "half_harmonic_8.json"),
            "--points-out", str(out_dir / "half_harmonic_8_points.txt"),
        ],
        [
            "gen-set", "--rule", "constant", "--c", "1/2", "--level", "8",
            "--spec-out", str(out_dir / "constant_half_8.json"),
            "--points-out", str(out_dir / "constant_half_8_points.txt"),
        ],
        [
            "pores", "--set", "lattice", "--cube", "unit:[0,1)",
            "--max-gen", "30", "--out", str(out_dir / "lattice_pores.csv"),
        ],
        [
            "ls-ratio", "--set", "lattice", "--cubes", "unit:[0,1)", "--s", "1/10",
            "--out", str(out_dir / "lattice_ratio.csv"),
        ],
        [
            "ls-ratio", "--set", str(out_dir / "half_harmonic_8.json"),
            "--cubes", "envelopes:0..8", "--s", "1/10", "--max-gen", "28",
            "--out", str(out_dir / "half_harmonic_envelope_ratios.csv"),
        ],
        [
            "porosity-check", "--set", "lattice", "--cube", "unit:[0,1)",
            "--sigma", "1/2", "--gamma", "1/2",
            "--out", str(out_dir / "lattice_porosity.json"),
        ],
        [
            "porosity-check", "--set", str(out_dir / "constant_half_8.json"),
            "--cube", "envelopes:8..8", "--sigma", "1/2", "--gamma", "1/2",
            "--out", str(out_dir / "constant_half_porosity.json"),
        ],
    ]


def run(out_dir: Path) -> int:
    """Run the command lines in order.  Stop at the first that fails and
    return its exit code; return 0 when every line succeeds."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for argv in command_lines(out_dir):
        code = cli(argv)
        if code:
            return code
    print(f"wrote reference-set reports to {out_dir}/")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default=os.path.join("out", "reference_sets"))
    args = parser.parse_args()
    sys.exit(run(Path(args.out_dir)))
