#!/usr/bin/env python3
"""A/B the experiment catalog between two checkouts: equal rows, and time.

Usage::

    python scripts/catalog_ab.py PARENT CHANGE
    python scripts/catalog_ab.py PARENT CHANGE --only E8,A1,E11 --seeds 0 --runs 3

Each experiment (every registered one, or those ``--only`` names) runs at
its registry defaults, ``run_experiment(ID, seed=SEED)``, in a fresh
interpreter from each checkout with ``PYTHONPATH=<checkout>/src``, once per
seed and run.  Run ``r`` goes parent first when ``r`` is odd and change
first when it is even, so a drift in the host's load falls on both sides
alike.  Each child prints one JSON line: the SHA-256 of its rows as
canonical JSON and the wall time of the ``run_experiment`` call.  The child
calls it once cold, then keeps calling it until it has made at least
``WARM_CALLS`` warm calls and they took at least ``WARM_SECONDS`` together,
and reports the median of the warm calls, so lazy imports and the warm-up
of the first few calls fall outside the time, and a millisecond experiment
is timed over enough calls to settle; the cold call's time is printed as
``cold``.

At the end one line per experiment says, for each seed, whether every run
of both sides gave the same rows, and gives each side's median time over
all its runs, the change/parent ratio of the medians and the distance
between the quartiles of the parent's times.  The script exits 1 when a
run fails or any rows differ.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Callable, Dict, List, Sequence

SIDES = ("parent", "change")

#: The fewest calls timed after the cold one; their median is an
#: experiment's time.  A short experiment still pays warm-up in its second
#: and third calls (E12's read 12-25 ms against 4.6 ms from its fourth
#: call on).
WARM_CALLS = 5

#: The least time the warm calls take together: a millisecond experiment
#: makes as many calls as fit (E12's median swapped 8 and 5 ms between
#: runs of the same code over 5 calls).
WARM_SECONDS = 1.0

#: The child: one experiment at registry defaults, run once cold and then
#: warm until at least ``WARM_CALLS`` calls took at least ``WARM_SECONDS``,
#: in one interpreter.  The cold call pays for the lazy imports and
#: reports ``cold_seconds``; the median of the others is ``seconds``.  Rows
#: are hashed as canonical JSON (sorted keys, no spaces, NumPy values as
#: plain ones) and must match between all the calls.
CHILD = """
import hashlib, json, statistics, sys, time
from repro.experiments import run_experiment

def plain(value):
    if hasattr(value, "tolist"):
        return value.tolist()
    raise TypeError(f"cannot hash {type(value).__name__}")

experiment_id, seed = sys.argv[1], int(sys.argv[2])
warm, budget = int(sys.argv[3]), float(sys.argv[4])
times, digests = [], set()
while len(times) < 1 + warm or sum(times[1:]) < budget:
    start = time.perf_counter()
    rows = run_experiment(experiment_id, seed=seed).rows
    times.append(time.perf_counter() - start)
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"), default=plain)
    digests.add(hashlib.sha256(text.encode()).hexdigest())
if len(digests) != 1:
    sys.exit(f"{experiment_id} seed {seed}: the calls gave different rows")
print(json.dumps({
    "sha256": digests.pop(),
    "seconds": statistics.median(times[1:]),
    "cold_seconds": times[0],
}))
"""

LIST_IDS = "import json; from repro.experiments.registry import all_ids; print(json.dumps(all_ids()))"


class RunFailed(RuntimeError):
    """A child exited non-zero or printed no result line."""


def _python(checkout: Path, args: Sequence[str]) -> str:
    """The stdout of ``python args`` with the checkout's ``src`` on the path."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run(
        [sys.executable, *args], cwd=checkout, env=env, capture_output=True, text=True
    )
    if proc.returncode != 0:
        raise RunFailed(f"{checkout} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def run_child(checkout: Path, experiment_id: str, seed: int) -> str:
    """The stdout of one child running ``experiment_id`` at ``seed``."""
    return _python(
        checkout,
        ["-c", CHILD, experiment_id, str(seed), str(WARM_CALLS), str(WARM_SECONDS)],
    )


def registry_ids(checkout: Path) -> List[str]:
    """Every experiment id the checkout's registry holds."""
    return json.loads(_python(checkout, ["-c", LIST_IDS]))


def parse_child(stdout: str) -> Dict:
    """The child's result: its last line of output."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise RunFailed("no output")
    try:
        result = json.loads(lines[-1])
        return {
            "sha256": str(result["sha256"]),
            "seconds": float(result["seconds"]),
            "cold_seconds": float(result["cold_seconds"]),
        }
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise RunFailed(f"last line is not a result: {lines[-1][:200]}") from exc


def iqr(values: Sequence[float]) -> float:
    """The distance between the quartiles (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def summarize(runs: Sequence[Dict], experiments: Sequence[str], seeds: Sequence[int]):
    """One line per experiment, and whether every experiment's rows are equal."""
    lines = [
        f"{'experiment':<10} {'rows equal':<24} {'parent s':>9} {'change s':>9} "
        f"{'change/parent':>14} {'parent IQR':>11}"
    ]
    all_equal = True
    for experiment in experiments:
        mine = [run for run in runs if run["experiment"] == experiment]
        verdicts = []
        for seed in seeds:
            digests = {run["sha256"] for run in mine if run["seed"] == seed}
            equal = len(digests) == 1
            all_equal &= equal
            verdicts.append(f"{seed}:{'yes' if equal else 'NO'}")
        times = {
            side: [run["seconds"] for run in mine if run["side"] == side]
            for side in SIDES
        }
        parent = statistics.median(times["parent"])
        change = statistics.median(times["change"])
        ratio = change / parent if parent else float("nan")
        lines.append(
            f"{experiment:<10} {' '.join(verdicts):<24} {parent:>9.3f} {change:>9.3f} "
            f"{ratio:>14.3f} {iqr(times['parent']):>11.3f}"
        )
    return lines, all_equal


def main(
    argv=None,
    run: Callable[[Path, str, int], str] = run_child,
    list_ids: Callable[[Path], List[str]] = registry_ids,
) -> int:
    parser = argparse.ArgumentParser(
        description="alternating A/B of the experiment catalog of two checkouts"
    )
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--only", help="comma-separated experiment ids (default: all)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 7])
    parser.add_argument("--runs", type=int, default=1)
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be >= 1")

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    try:
        experiments = (
            [name.strip() for name in args.only.split(",") if name.strip()]
            if args.only
            else list_ids(checkouts["change"])
        )
    except RunFailed as exc:
        print(f"error: listing experiments: {exc}", file=sys.stderr)
        return 1
    runs = []
    for experiment in experiments:
        for seed in args.seeds:
            for index in range(1, args.runs + 1):
                order = SIDES if index % 2 else SIDES[::-1]
                for side in order:
                    try:
                        result = parse_child(run(checkouts[side], experiment, seed))
                    except RunFailed as exc:
                        print(f"error: {experiment} seed {seed} run {index} {side}: {exc}",
                              file=sys.stderr)
                        return 1
                    print(f"{experiment:<4} seed {seed:>2} run {index} {side:<6} "
                          f"{result['seconds']:8.3f} s (cold {result['cold_seconds']:.3f} s)  "
                          f"{result['sha256'][:16]}", flush=True)
                    runs.append({"experiment": experiment, "seed": seed, "side": side, **result})
    lines, all_equal = summarize(runs, experiments, args.seeds)
    print("\n".join(lines))
    if not all_equal:
        print("error: some rows differ", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
