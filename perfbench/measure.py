"""The workload process: one timed closed-loop run of one workload.

``run.py`` starts this in a fresh interpreter with a fixed environment and
reads the JSON object on its last line of output::

    python perfbench/measure.py --workload NAME --seed N --seconds S \\
        --trace 0|1 --build DIR

Untraced (``--trace 0``) it reports the end-to-end metrics, with op times
at the reference host speed of ``probe.py``.  Traced (``--trace 1``) it
alternates untraced and traced ops, so the tracing overhead is measured
on the same host minute, and reports the per-layer metrics of the traced
ops plus the kernel thread-scaling curve.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List

import numpy as np

import repro.core.native as native
from probe import HostProbe, at_reference_speed
from spans import KERNEL, Tracer
from workloads import WORKLOADS

#: Per-layer metrics of one traced op and their units (median over ops).
LAYER_UNITS = {
    "parallel.ensemble.self_ms": "ms",
    "core.batched.build_ms": "ms",
    "core.batched.run_self_ms": "ms",
    "core.batched.inject_ms": "ms",
    "core.native.kernel_ms": "ms",
    "core.native.calls": "count",
    "core.native.bin_updates_per_s": "1/s",
    "metrics.observe_ms": "ms",
    "metrics.observe_calls": "count",
    "metrics.payload_ms": "ms",
    "metrics.fused_ingest_ms": "ms",
    "adversary.apply_ms": "ms",
    "adversary.faults": "count",
    "adversary.run_self_ms": "ms",
    "baselines.d_choices.run_ms": "ms",
    "sweeps.plan_ms": "ms",
    "sweeps.scheduler.self_ms": "ms",
    "store.append_ms": "ms",
    "store.bytes": "bytes",
}


def _layer_values(layers, op_s: float, work: int, store_bytes: int) -> Dict[str, float]:
    """Per-layer metrics of one traced op from its span totals."""

    def get(name: str, key: str) -> float:
        return layers[name][key] if name in layers else 0.0

    def ms(name: str, key: str = "total_s") -> float:
        return 1e3 * get(name, key)

    kernel_s = get(KERNEL, "total_s")
    return {
        "parallel.ensemble.self_ms": ms("parallel.ensemble", "self_s"),
        "core.batched.build_ms": ms("core.batched.build"),
        "core.batched.run_self_ms": ms("core.batched.run", "self_s"),
        "core.batched.inject_ms": ms("core.batched.inject"),
        "core.native.kernel_ms": 1e3 * kernel_s,
        "core.native.calls": get(KERNEL, "count"),
        "core.native.bin_updates_per_s": work / kernel_s if kernel_s else 0.0,
        "metrics.observe_ms": ms("metrics.observe"),
        "metrics.observe_calls": get("metrics.observe", "count"),
        "metrics.payload_ms": ms("metrics.payload"),
        "metrics.fused_ingest_ms": ms("metrics.fused_ingest"),
        "adversary.apply_ms": ms("adversary.apply"),
        "adversary.faults": get("adversary.apply", "count"),
        "adversary.run_self_ms": ms("adversary.run", "self_s"),
        "baselines.d_choices.run_ms": ms("baselines.d_choices.run"),
        "sweeps.plan_ms": ms("sweeps.plan"),
        "sweeps.scheduler.self_ms": ms("sweeps.scheduler", "self_s"),
        "store.append_ms": ms("store.append"),
        "store.bytes": float(store_bytes),
        # shares of the op's wall time, for the README's layer table
        "share.kernel": kernel_s / op_s,
        "share.observe_plus_run_self": (
            get("metrics.observe", "total_s") + get("core.batched.run", "self_s")
        ) / op_s,
        "share.run_self": get("core.batched.run", "self_s") / op_s,
        "share.d_choices_run": get("baselines.d_choices.run", "total_s") / op_s,
    }


class Loop:
    """Runs and checks the ops of one workload; op ``i`` uses ``base + i``."""

    def __init__(self, workload, base: int, scratch: Path, probe) -> None:
        self.workload = workload
        self.probe = probe
        self.base = base
        self.scratch = scratch
        self.spec = workload.spec()
        self.work = workload.work(self.spec)
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self._reference = None  # digest of op 0, from the warm-up

    def op(self, i: int, **run_args):
        """Run op ``i``; returns ``(seconds, ok, store_bytes, probe_seconds)``.

        Only ``workload.run`` is timed.  Garbage from the previous op is
        collected first, so no op pays for another's; then the host probe
        runs, right before the op.
        """
        gc.collect()
        self.attempted += 1
        probe_s = self.probe()
        store_bytes, elapsed = 0, None
        start = time.perf_counter()
        try:
            out = self.workload.run(self.spec, self.base + i, self.scratch, **run_args)
            elapsed = time.perf_counter() - start
            errors = self.workload.check(self.spec, out)
            if i == 0:
                digest = self.workload.digest(out)
                if self._reference is None:
                    self._reference = digest
                elif digest != self._reference:
                    errors.append("re-running op 0 gave a different digest")
            store_bytes = self.workload.store_bytes(out)
            self.workload.cleanup(out)
        # lint: allow-broad-except(an op that raises counts as failed, the loop goes on)
        except Exception:
            if elapsed is None:
                elapsed = time.perf_counter() - start
            errors = [traceback.format_exc(limit=3).strip()]
        if errors:
            self.failed += 1
            self.errors.extend(f"op {i}: {error}" for error in errors)
        return elapsed, not errors, store_bytes, probe_s


def _tail(times: List[float]) -> dict:
    """The highest percentile with at least ten samples beyond it."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(times) * (1 - p / 100) >= 10:
            value = float(np.percentile(times, p))
            return {"percentile": p, "ms": 1e3 * value, "samples": len(times)}
    return {"percentile": None, "samples": len(times)}


def _host() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "available_cpus": native.available_cpu_count(),
        "cpu_model": model,
        "native_status": native.native_status(),
        "native_threading": native.native_threading(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def timed_loop(loop: Loop, seconds: float, each=None):
    """Ops ``0, 1, ...`` for ``seconds`` (at least two).

    ``each(i)``, if given, runs op ``i`` in place of ``loop.op(i)``.
    Returns ``(times at reference speed, ok flags, wall times)``.
    """
    wall, probes, oks = [], [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while i < 2 or time.perf_counter() < deadline:
        elapsed, ok, _, probe_s = (each or loop.op)(i)
        wall.append(elapsed)
        probes.append(probe_s)
        oks.append(ok)
        i += 1
    probes.append(loop.probe())  # the probe right after the last op
    return at_reference_speed(wall, probes), oks, wall


def untraced(loop: Loop, seconds: float) -> dict:
    scaled, oks, wall = timed_loop(loop, seconds)
    ok_times = [t for t, ok in zip(scaled, oks) if ok]
    # the median op's throughput: a mean over ops would let one op that
    # hit a slow host second move the whole run
    throughput = loop.work / statistics.median(ok_times) if ok_times else 0.0
    metrics = {
        "bin_updates_per_s": (throughput, "1/s"),
        "op_p50_ms": (1e3 * statistics.median(scaled), "ms"),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return {
        "metrics": metrics,
        "tail": _tail(scaled),
        "wall_op_p50_ms": 1e3 * statistics.median(wall),
    }


def traced(loop: Loop, seconds: float, scratch: Path, dump: Path) -> dict:
    tracer = Tracer()
    per_op = []

    def each(i):
        """Odd ops run traced, so both halves see the same host spells."""
        if i % 2 == 0:
            return loop.op(i)
        tracer.install()
        tracer.op = i
        try:
            elapsed, ok, store_bytes, probe_s = loop.op(i)
        finally:
            tracer.uninstall()
        layers = tracer.op_layers(i)
        per_op.append(_layer_values(layers, elapsed, loop.work, store_bytes))
        return elapsed, ok, store_bytes, probe_s

    scaled, _, _ = timed_loop(loop, seconds, each)
    plain, traced_times = scaled[0::2], scaled[1::2]

    # kernel thread scaling on the converge_fused op, 1..nproc threads
    scaling_loop = Loop(WORKLOADS["converge_fused"], loop.base, scratch, loop.probe)
    kernel_s = {}
    for threads in range(1, max(2, os.cpu_count() or 1) + 1):
        tracer.install()
        tracer.op = f"scale_t{threads}"
        scaling_loop.op(0, n_threads=threads)
        tracer.uninstall()
        kernel_s[threads] = tracer.op_layers(tracer.op)[KERNEL]["total_s"]
    tracer.dump(dump)

    values = {
        name: statistics.median(op[name] for op in per_op) for name in per_op[0]
    }
    metrics = {name: (values[name], unit) for name, unit in LAYER_UNITS.items()}
    scaling = {t: kernel_s[1] / kernel_s[t] for t in kernel_s}
    metrics["core.native.scaling_t2"] = (scaling[2], "ratio")
    untraced_p50 = statistics.median(plain)
    traced_p50 = statistics.median(traced_times)
    metrics["trace.untraced_op_p50_ms"] = (1e3 * untraced_p50, "ms")
    metrics["trace.op_p50_ms"] = (1e3 * traced_p50, "ms")
    metrics["trace.overhead_ratio"] = (traced_p50 / untraced_p50, "ratio")
    return {
        "metrics": metrics,
        "loops": [loop, scaling_loop],
        "shares": {k: v for k, v in values.items() if k.startswith("share.")},
        "scaling": {f"t{t}": ratio for t, ratio in scaling.items()},
        "untraced_targets": tracer.missing,
        "spans": str(dump),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--build", type=Path, required=True)
    args = parser.parse_args(argv)

    scratch = args.build / "stores" / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        with HostProbe() as probe:
            loop = Loop(WORKLOADS[args.workload], args.seed, scratch, probe)
            loop.op(0)  # untimed warm-up; its digest is op 0's reference
            if args.trace:
                name = f"{args.workload}-seed{args.seed}.jsonl"
                report = traced(loop, args.seconds, scratch, args.build / "traces" / name)
            else:
                report = untraced(loop, args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    loops = report.pop("loops", [loop])
    report.update(
        attempted=sum(lp.attempted for lp in loops),
        failed=sum(lp.failed for lp in loops),
        errors=[e for lp in loops for e in lp.errors][:10],
        host=_host(),
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
