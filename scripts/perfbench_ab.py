#!/usr/bin/env python3
"""A/B the repository benchmark between two checkouts, in alternating pairs.

Usage::

    python scripts/perfbench_ab.py PARENT CHANGE --workload sweep_wide --pairs 10
    python scripts/perfbench_ab.py PARENT CHANGE --workload converge_fused \\
        --pairs 6 --mmap-threshold 131072
    python scripts/perfbench_ab.py PARENT CHANGE --workload converge_fused \\
        --pairs 10 --cpu 0

Pair i runs ``perfbench/run.py --workload W --seed i --seconds 10 --trace 0``
from each checkout: the parent first in odd pairs, the change first in even
ones, so a drift in the host's load falls on both sides alike.  Each run
prints one line with its end-to-end metrics (the ``end_to_end`` list of
CHANGE's ``BENCHMARK.json``).  At the end one line per metric gives each
side's median, the change/parent ratio of the medians, the pairs the
change won (those where its value is better in the metric's ``better``
direction), and the distance between the quartiles of the parent's runs,
which a claimed gain in the median should exceed.

``--mmap-threshold BYTES`` sets ``MALLOC_MMAP_THRESHOLD_`` on both sides.
glibc then serves every allocation of at least that size from a mapping of
its own, so an op's large arrays no longer land wherever the heap's history
puts them.

``--cpu N`` pins every run to CPU N: the child that runs ``run.py`` sets
its affinity before it starts, and the interpreters ``run.py`` starts (the
setup timings, ``measure.py``, the host probe) inherit it.  On a 2-vCPU VM
one ``converge_fused`` op took about 230 ms on one vCPU and about 350 ms
on the other within a minute, and an unpinned run lands on either.

Each checkout builds its kernels under its own ``.bench_build/``.  The
script exits 1 when a run fails or reports ``"correct": false``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

SECONDS = 10
SIDES = ("parent", "change")


class RunFailed(RuntimeError):
    """A perfbench run exited non-zero or printed no result."""


def end_to_end(checkout: Path) -> List[Tuple[str, str]]:
    """(name, better) of each end-to-end metric in ``BENCHMARK.json``."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    return [(m["name"], m["better"]) for m in spec["end_to_end"]]


def parse_result(stdout: str) -> Dict:
    """The result line of a perfbench run: its last line of output."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise RunFailed("no output")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise RunFailed(f"last line is not JSON: {lines[-1][:200]}") from exc
    return {
        "correct": bool(result.get("correct")),
        "metrics": {
            name: metric["value"]
            for name, metric in result.get("metrics", {}).items()
        },
    }


def run_perfbench(
    checkout: Path, workload: str, seed: int, env: Dict,
    cpu: Optional[int] = None,
) -> str:
    """The stdout of one untraced perfbench run from ``checkout``, pinned
    with its children to ``cpu`` when one is given."""
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=checkout, env=env, capture_output=True, text=True,
        preexec_fn=pin,
    )
    if proc.returncode != 0:
        raise RunFailed(
            f"{checkout} seed {seed} exited {proc.returncode}:\n"
            f"{proc.stderr[-2000:]}"
        )
    return proc.stdout


def won(parent: float, change: float, better: str) -> bool:
    return change < parent if better == "lower" else change > parent


def iqr(values: Sequence[float]) -> float:
    """The distance between the quartiles (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def summarize(runs: Sequence[Dict], metrics: Sequence[Tuple[str, str]]) -> List[str]:
    """Per metric: each side's median, change/parent, the pairs won and
    the parent's interquartile range."""
    by_pair: Dict[int, Dict[str, Dict[str, float]]] = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run["metrics"]
    pairs = [sides for sides in by_pair.values() if len(sides) == 2]
    lines = [
        f"{'metric':<20} {'parent':>12} {'change':>12} "
        f"{'change/parent':>14} {'won':>7} {'parent IQR':>12}"
    ]
    for name, better in metrics:
        both = [p for p in pairs if all(name in p[side] for side in SIDES)]
        if not both:
            continue
        values = {side: [p[side][name] for p in both] for side in SIDES}
        parent = statistics.median(values["parent"])
        change = statistics.median(values["change"])
        ratio = change / parent if parent else float("nan")
        wins = sum(won(p["parent"][name], p["change"][name], better) for p in both)
        lines.append(
            f"{name:<20} {parent:>12.4g} {change:>12.4g} {ratio:>14.3f} "
            f"{wins:>3}/{len(both):<3} {iqr(values['parent']):>12.4g}"
        )
    return lines


def main(
    argv=None,
    run: Callable[..., str] = run_perfbench,
) -> int:
    parser = argparse.ArgumentParser(
        description="alternating perfbench A/B of two checkouts"
    )
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--mmap-threshold", type=int, metavar="BYTES")
    parser.add_argument("--cpu", type=int, metavar="N")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    if args.cpu is not None and args.cpu not in os.sched_getaffinity(0):
        parser.error(f"--cpu {args.cpu} is not a CPU this process may run on")

    env = dict(os.environ)
    if args.mmap_threshold is not None:
        env["MALLOC_MMAP_THRESHOLD_"] = str(args.mmap_threshold)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    metrics = end_to_end(checkouts["change"])
    runs = []
    for pair in range(1, args.pairs + 1):
        order = SIDES if pair % 2 else SIDES[::-1]
        for side in order:
            try:
                result = parse_result(
                    run(checkouts[side], args.workload, pair, env, cpu=args.cpu)
                )
            except RunFailed as exc:
                print(f"error: pair {pair} {side}: {exc}", file=sys.stderr)
                return 1
            if not result["correct"]:
                print(f"error: pair {pair} {side}: correct is false",
                      file=sys.stderr)
                return 1
            values = " ".join(
                f"{name}={result['metrics'][name]:.4g}"
                for name, _ in metrics if name in result["metrics"]
            )
            print(f"pair {pair:>2} seed {pair:>2} {side:<6} {values}", flush=True)
            runs.append({"pair": pair, "side": side, "metrics": result["metrics"]})
    print("\n".join(summarize(runs, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
