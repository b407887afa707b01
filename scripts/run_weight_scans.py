#!/usr/bin/env python3
"""Weight-side experiments: Muckenhoupt product sweeps (bounded versus
divergent exponents) and the probability statistics of the generated sets,
including the quantile divergence scan for the constant-1/2 sequence.

Writes CSV artifacts under out/ (override with --out-dir).
"""

import argparse
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from poremetrics.cli import main as cli  # noqa: E402


def command_lines(out_dir: Path) -> list[list[str]]:
    return [
        # Admissible exponent: the product is constant 4/3 across every scale.
        # Every window [0, 2^k) has the first one's relative gap walk, so the
        # scan computes the first row and reuses it for the other 40.
        [
            "ap-scan", "--set", "point:0", "--alpha", "1/2", "--p", "2",
            "--cubes", "dyadic:-20..20", "--out", str(out_dir / "ap_origin_alpha_half.csv"),
        ],
        # Outside the admissible range: the certified lower bound diverges.
        # The window holds one point, so the divergent row is reused too.
        [
            "ap-scan", "--set", "point:0", "--alpha", "3/2", "--p", "2",
            "--cubes", "dyadic:-10..10", "--out", str(out_dir / "ap_origin_alpha_three_halves.csv"),
        ],
        [
            "ap-scan", "--set", "lattice", "--alpha", "1/3", "--p", "2",
            "--cubes", "dyadic:0..8", "--out", str(out_dir / "ap_lattice.csv"),
        ],
        [
            "prob-stats", "--rule", "half_harmonic", "--levels", "0..200",
            "--out", str(out_dir / "half_harmonic_moments.csv"),
        ],
        [
            "prob-stats", "--rule", "constant", "--c", "1/2", "--levels", "0..40",
            "--out", str(out_dir / "constant_half_moments.csv"),
            "--divergence-t", "1/10",
            "--divergence-out", str(out_dir / "constant_half_divergence.csv"),
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
    print(f"wrote weight-scan reports to {out_dir}/")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default=os.path.join("out", "weight_scans"))
    args = parser.parse_args()
    sys.exit(run(Path(args.out_dir)))
