"""Benchmark entry point for this repository.

Run from the repository root::

    python3 perfbench/run.py --workload converge_fused --seed 1 --seconds 10 --trace 0

It builds the native kernels and writes bytecode (untimed), times
``setup_s`` in fresh interpreters, then starts ``measure.py`` for the
timed closed loop.  The last line of output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it holds diagnostics (host, tail percentile, layer shares, errors).
Everything the benchmark writes goes under ``.bench_build/`` in the root.
See ``README.md`` next to this file for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src" / "repro" / "__init__.py"

#: Fresh interpreters timed per run for ``setup_s``, after one untimed warm
#: one.  One import can take half as long again as the next on a shared
#: VM; the median of several is steadier.
SETUP_SAMPLES = 5
#: ``-X importtime`` interpreters per traced run (median reported).
IMPORTTIME_SAMPLES = 3
#: Every child is killed after this long; a run must end within 180 s.
CHILD_TIMEOUT_S = 150


class BenchError(RuntimeError):
    """A step failed; the run prints no result."""


def bench_env(build: Path) -> dict:
    """The fixed environment of every child process.

    A fixed hash seed keeps dict and set order identical across runs; one
    OpenMP/BLAS thread keeps numpy from competing with the kernel thread;
    ``REPRO_*`` switches are dropped so the default program is measured.
    The kernel cache and bytecode live under ``build``, inside the checkout.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        XDG_CACHE_HOME=str(build / "cache"),
        PYTHONPYCACHEPREFIX=str(build / "pycache"),
    )
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(args, env, timeout=CHILD_TIMEOUT_S) -> subprocess.CompletedProcess:
    """Run one child to completion (killed and reaped on timeout)."""
    try:
        proc = subprocess.run(
            [sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{args[:2]} timed out after {timeout} s") from exc
    if proc.returncode != 0:
        raise BenchError(
            f"{args[:2]} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    return proc


def setup_snippet(workload: str) -> str:
    return f"import workloads; workloads.setup({workload!r})"


def build(workload: str, env: dict) -> None:
    """Untimed: write bytecode for every module, compile the kernels."""
    run_child(["-m", "compileall", "-q", str(ROOT / "src" / "repro"), str(HERE)],
              env, timeout=600)
    run_child(["-c", setup_snippet(workload)], env, timeout=600)


def setup_seconds(workload: str, env: dict) -> float:
    """Median wall time of fresh interpreters doing what a CLI call does."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        run_child(["-c", setup_snippet(workload)], env)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


_IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")


def import_layers(stderr: str) -> dict:
    """``repro`` and outermost ``scipy`` cumulative import seconds.

    ``-X importtime`` prints children before their parent, indented one
    step deeper; read in reverse, each line's ancestors are the stack.
    """
    repro_us = scipy_us = 0
    stack = []  # (depth, module) of the current line's ancestors
    for line in reversed(stderr.splitlines()):
        match = _IMPORTTIME.match(line)
        if not match:
            continue
        cumulative, depth, module = int(match[2]), len(match[3]), match[4]
        while stack and stack[-1][0] >= depth:
            stack.pop()
        if module == "repro":
            repro_us = cumulative
        root = module.split(".")[0]
        if root == "scipy" and all(m.split(".")[0] != "scipy" for _, m in stack):
            scipy_us += cumulative
        stack.append((depth, module))
    return {"setup.import_repro_s": repro_us / 1e6,
            "setup.import_scipy_s": scipy_us / 1e6}


def setup_layers(env: dict) -> dict:
    """Import shares from ``-X importtime`` and the kernel load time."""
    code = (
        "import time, repro.core.native as n; t = time.perf_counter(); "
        "n.get_kernel('rbb'); print(time.perf_counter() - t)"
    )
    samples = []
    for _ in range(IMPORTTIME_SAMPLES):
        proc = run_child(["-X", "importtime", "-c", code], env)
        layers = import_layers(proc.stderr)
        layers["core.native.load_s"] = float(proc.stdout.split()[-1])
        samples.append(layers)
    return {name: statistics.median(s[name] for s in samples) for name in samples[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="repro benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not SOURCE.is_file():
        print(f"error: no repro source tree at {SOURCE.parent}", file=sys.stderr)
        return 2

    build_dir = ROOT / ".bench_build"
    env = bench_env(build_dir)
    try:
        build(args.workload, env)
        if args.trace:
            extra = {k: (v, "s") for k, v in setup_layers(env).items()}
        else:
            extra = {"setup_s": (setup_seconds(args.workload, env), "s")}
        proc = run_child(
            [str(HERE / "measure.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--build", str(build_dir)],
            env,
        )
        report = json.loads(proc.stdout.strip().splitlines()[-1])
    except (BenchError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = {**report.pop("metrics"), **extra}
    attempted, failed = report.pop("attempted"), report.pop("failed")
    print(json.dumps({"diagnostics": report}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in sorted(metrics.items())
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
