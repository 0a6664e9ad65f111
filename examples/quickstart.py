#!/usr/bin/env python
"""Quickstart: simulate the repeated balls-into-bins process.

This example walks through the paper's two headline claims (Theorem 1) on a
single system size:

1. *Stability* — starting from a legitimate configuration, the maximum load
   stays O(log n) over a long window.
2. *Self-stabilization* — starting from the worst possible configuration
   (every ball in one bin), the process reaches a legitimate configuration
   within O(n) rounds.

Run with ``python examples/quickstart.py [n]`` (default n = 1024).
"""

from __future__ import annotations

import math
import sys

from repro import (
    BatchedEmptyBinsTracker,
    BatchedLegitimacyTracker,
    BatchedMaxLoadTracker,
    LoadConfiguration,
    RepeatedBallsIntoBins,
    legitimacy_threshold,
)
from repro.experiments import format_table


def stability_demo(n: int, seed: int = 0) -> dict:
    """Run the process from a balanced start and report the window maximum."""
    process = RepeatedBallsIntoBins(n, seed=seed)
    # a single-replica simulator feeds the trackers its 1-D load vector,
    # the R == 1 view: every per-replica result sits at index 0
    max_load = BatchedMaxLoadTracker(record_series=False)
    empty_bins = BatchedEmptyBinsTracker(record_series=False)
    rounds = 8 * n
    process.run(rounds, observers=[max_load, empty_bins])
    return {
        "scenario": "stability (balanced start)",
        "rounds": rounds,
        "window_max_load": int(max_load.window_max[0]),
        "legitimacy_threshold": round(legitimacy_threshold(n), 1),
        "min_empty_fraction": round(float(empty_bins.min_fraction[0]), 3),
        "log_n": round(math.log(n), 2),
    }


def self_stabilization_demo(n: int, seed: int = 1) -> dict:
    """Run the process from the all-in-one-bin start and time the recovery."""
    process = RepeatedBallsIntoBins(n, initial=LoadConfiguration.all_in_one(n), seed=seed)
    legitimacy = BatchedLegitimacyTracker()
    process.run(8 * n, observers=[legitimacy])
    first_legitimate = int(legitimacy.first_legitimate_round[0])
    return {
        "scenario": "self-stabilization (all balls in one bin)",
        "rounds": 8 * n,
        "window_max_load": n,  # the initial pile dominates the window max
        "legitimacy_threshold": round(legitimacy_threshold(n), 1),
        "convergence_round": first_legitimate,
        "convergence_over_n": round(first_legitimate / n, 2),
        "stable_afterwards": bool(legitimacy.stable_after_convergence[0]),
    }


def main() -> int:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 1024
    print(f"Repeated balls-into-bins with n = {n} bins and n balls\n")

    stability = stability_demo(n)
    recovery = self_stabilization_demo(n)

    print(format_table([stability], title="Theorem 1, part 1 — stability"))
    print(
        f"  -> max load over {stability['rounds']} rounds is "
        f"{stability['window_max_load']} ~ "
        f"{stability['window_max_load'] / stability['log_n']:.1f} * log n "
        f"(threshold {stability['legitimacy_threshold']})\n"
    )

    print(format_table([recovery], title="Theorem 1, part 2 — self-stabilization"))
    print(
        f"  -> from the worst configuration, a legitimate configuration is reached after "
        f"{recovery['convergence_round']} rounds ~ {recovery['convergence_over_n']} * n, "
        f"and legitimacy then holds for the rest of the window: {recovery['stable_afterwards']}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
