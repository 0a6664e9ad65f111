"""Sweep scheduler overhead benchmark.

The sweep subsystem's contract is that the scheduler + store layer is a
thin shell around the ensemble engine: planning (config resolution +
content hashing), per-point seeding, checkpoint lookups, streaming
summaries, and shard/manifest writes must together stay below
``OVERHEAD_TARGET`` (5%) of pure engine time on a 64-point grid at a
realistic per-point scale (``R = 64`` replicas, ``n = 1024`` bins).

The scheduler itself times every ``run_ensemble`` call
(``SweepReport.engine_seconds``), so the measurement needs no separate
baseline run: overhead is everything in ``elapsed_seconds`` that is not
engine time, including all store I/O (the store is written to a real
temporary directory).

Run it as a script; it exits 1 when the cap is missed::

    PYTHONPATH=src python benchmarks/bench_sweeps.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.core.native import native_status
from repro.sweeps import SweepSpec, run_sweep

N_BINS = 1024
N_REPLICAS = 64
N_POINTS = 64
#: Per-point round budgets: 64 distinct budgets around ~900 rounds, so all
#: points cost roughly the same and every config stays unique.
ROUNDS = list(range(900, 900 + N_POINTS))
SEED = 0

#: Scheduler + store overhead must stay below this fraction of engine time.
OVERHEAD_TARGET = 0.05


def _bench_spec() -> SweepSpec:
    return SweepSpec(
        name="bench_overhead",
        description="64-point overhead benchmark grid",
        base={"n_bins": N_BINS, "n_replicas": N_REPLICAS},
        grid={"rounds": ROUNDS},
    )


def measure() -> dict:
    """Run the 64-point sweep into a real on-disk store and split the time."""
    with tempfile.TemporaryDirectory(prefix="repro-bench-sweep-") as tmp:
        report = run_sweep(
            _bench_spec(), Path(tmp) / "store", seed=SEED, kernel="auto"
        )
        assert report.finished and report.n_run == N_POINTS
        shard_files = len(list((Path(tmp) / "store" / "shards").glob("*.npz")))
        assert shard_files == N_POINTS
    engine = report.engine_seconds
    overhead = report.overhead_seconds
    return {
        "engine_s": engine,
        "overhead_s": overhead,
        "total_s": report.elapsed_seconds,
        "overhead_fraction": overhead / engine if engine else float("inf"),
    }


def main() -> int:
    print(
        f"sweep: {N_POINTS} points, R={N_REPLICAS} replicas, n={N_BINS} "
        f"bins, ~{ROUNDS[0]} rounds per point"
    )
    print(f"native kernel: {native_status()}")
    timings = measure()
    print(
        f"engine {timings['engine_s']:.3f}s | scheduler+store "
        f"{timings['overhead_s']:.3f}s | total {timings['total_s']:.3f}s | "
        f"overhead {timings['overhead_fraction']:.2%} "
        f"(target < {OVERHEAD_TARGET:.0%})"
    )
    if timings["overhead_fraction"] >= OVERHEAD_TARGET:
        print("FAIL: overhead target missed")
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
