#!/usr/bin/env python
"""Regenerate EXPERIMENTS.md by running every registered experiment at report scale.

Usage:
    python scripts/generate_experiments_report.py [--out EXPERIMENTS.md] [--seed 0] [--only E1 E2 ...]
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.experiments.report import generate_full_report

PREAMBLE = """\
This file records a reproduction run of every experiment defined in DESIGN.md for
*Self-stabilizing repeated balls-into-bins* (Becchetti, Clementi, Natale, Pasquale, Posta;
SPAA 2015 / Distributed Computing 2019).  The paper is purely analytical (no tables or
figures), so each "experiment" verifies the shape of one theorem/lemma/corollary at finite
n.  Absolute constants are not expected to match anything (the paper does not report any);
the growth rates, dominance relations, and pass/fail shape checks are the reproduction
targets.  Regenerate with `python scripts/generate_experiments_report.py`.
"""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="EXPERIMENTS.md", help="output path")
    parser.add_argument("--seed", type=int, default=0, help="root seed")
    parser.add_argument("--only", nargs="*", default=None, help="subset of experiment ids")
    args = parser.parse_args()

    report = generate_full_report(
        experiment_ids=args.only, seed=args.seed, preamble=PREAMBLE
    )
    Path(args.out).write_text(report)
    print(f"wrote {args.out} ({len(report.splitlines())} lines)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
