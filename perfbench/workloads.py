"""The benchmark's workloads: how one op is built, run, sized and checked.

Each workload is a closed loop with one client: the next op starts only
after the previous one has returned.  Op ``i`` of a run uses seed
``base + i``, so a run with the same base seed repeats bit-identical work,
and per-op work (``R * n * rounds`` bin updates) is fixed by the spec.

Every op runs in this process on one kernel thread:

* ``n_threads=1``: on a 2-vCPU shared Xeon VM a second kernel thread ran
  the converge op 0.98-1.50x as fast as one, depending on what the
  neighbours did, so threaded op times jump with their load.
* ``n_workers=0``: a process pool would add fork and pickling jitter and
  make results depend on the core count (ROADMAP item 1).

The ops call ``run_ensemble`` and ``run_sweep`` through their modules at
call time, so the traced run (``spans.py``) sees the same calls it patches.
"""

from __future__ import annotations

import hashlib
import shutil
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

import repro.core.native as native
import repro.parallel.ensemble as ensemble
import repro.sweeps.plan as plan
import repro.sweeps.scheduler as scheduler
from repro.store import ResultStore
from repro.sweeps import SweepSpec

#: Ensembles and sweeps run in this process only (see module docstring).
N_WORKERS = 0
#: One kernel thread: the shared second vCPU makes threaded timings jumpy.
N_THREADS = 1


def _digest(arrays: Dict[str, np.ndarray]) -> str:
    """SHA-256 over named arrays, in name order, shape and dtype included."""
    h = hashlib.sha256()
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        h.update(f"{name}:{arr.dtype.str}:{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def _result_arrays(result) -> Dict[str, np.ndarray]:
    """Final loads, window vectors and every observed metric vector."""
    arrays = {
        "final_loads": result.final_loads,
        "max_load_seen": result.max_load_seen,
        "min_empty_bins_seen": result.min_empty_bins_seen,
        "first_legitimate_round": result.first_legitimate_round,
        "rounds": result.rounds,
    }
    for name, payload in result.metrics.items():
        arrays[f"{name}.rounds"] = np.asarray(payload.rounds)
        for group in ("series", "summaries", "arrays"):
            for key, value in getattr(payload, group).items():
                arrays[f"{name}.{group}.{key}"] = np.asarray(value)
    return arrays


class EnsembleWorkload:
    """One op = one ``run_ensemble`` call on a fixed spec.

    ``kernel`` is passed through unchanged: ``"native"`` where a C kernel
    exists, so a missing compiler fails the run instead of silently timing
    numpy; ``"auto"`` where none exists yet, so a later kernel is picked up
    without editing the benchmark.
    """

    def __init__(self, name: str, kernel: str, **spec):
        self.name = name
        self.kernel = kernel
        #: compiled kernels an op loads (``setup`` builds them)
        self.kernels: Tuple[str, ...] = ("rbb",) if kernel == "native" else ()
        self._spec = spec

    def spec(self):
        return ensemble.EnsembleSpec(**self._spec)

    def work(self, spec) -> int:
        """Bin updates of one op: ``R * n * rounds``."""
        return spec.n_replicas * spec.n_bins * spec.rounds

    def run(self, spec, seed: int, scratch: Path, n_threads: int = N_THREADS):
        return ensemble.run_ensemble(
            spec, seed=seed, engine="batched", n_workers=N_WORKERS,
            kernel=self.kernel, n_threads=n_threads,
        )

    def digest(self, result) -> str:
        return _digest(_result_arrays(result))

    def check(self, spec, result) -> List[str]:
        """Checks that hold under any RNG stream."""
        R, n = spec.n_replicas, spec.n_bins
        balls = n if spec.n_balls is None else spec.n_balls
        loads = np.asarray(result.final_loads)
        if loads.shape != (R, n):
            return [f"final_loads shape {loads.shape} != {(R, n)}"]
        errors = []
        if (loads < 0).any():
            errors.append("negative load")
        bad = np.flatnonzero(loads.sum(axis=1) != balls)
        if bad.size:
            errors.append(f"{bad.size} replica(s) do not conserve {balls} balls")
        for field in ("rounds", "max_load_seen", "min_empty_bins_seen",
                      "first_legitimate_round"):
            if np.asarray(getattr(result, field)).shape != (R,):
                errors.append(f"{field} is not one value per replica")
        if not (np.asarray(result.rounds) == spec.rounds).all():
            errors.append(f"some replica did not run {spec.rounds} rounds")
        return errors + self.extra_check(spec, result)

    def extra_check(self, spec, result) -> List[str]:
        return []

    def store_bytes(self, result) -> int:
        return 0

    def cleanup(self, result) -> None:
        pass


class ConvergeFused(EnsembleWorkload):
    def extra_check(self, spec, result):
        # Theorem 1: from any start, legitimate within O(n) rounds w.h.p.
        first = np.asarray(result.first_legitimate_round)
        share = float(np.mean((first >= 0) & (first <= 2 * spec.n_bins)))
        if share < 0.99:
            return [f"converged fraction by round 2n is {share:.4f} < 0.99"]
        return []


class FaultsSegmented(EnsembleWorkload):
    def extra_check(self, spec, result):
        errors = []
        # the concentrate fault piles all n balls into one bin
        if not (np.asarray(result.max_load_seen) == spec.n_bins).all():
            errors.append("some replica never saw the concentrate spike (n)")
        histogram = result.metrics.get("histogram")
        if histogram is None:
            return errors + ["histogram payload missing"]
        # every observation counts each of a replica's n bins exactly once
        per_replica = np.asarray(histogram.arrays["counts"]).sum(axis=1)
        if not (per_replica[0] > 0 and (per_replica == per_replica[0]).all()
                and per_replica[0] % spec.n_bins == 0):
            errors.append("histogram does not count every bin once per observation")
        return errors


class SweepWide:
    """One op = one ``run_sweep`` over ``points`` points into a fresh store."""

    kernel = "native"
    kernels = ("rbb",)

    def __init__(self, name: str, points: int, **base):
        self.name = name
        self.points = points
        self._base = base

    def spec(self):
        rounds = list(range(60, 60 + self.points))
        sweep = SweepSpec(name=self.name, base=self._base, grid={"rounds": rounds})
        # expanding validates every point's EnsembleSpec, as a CLI call does
        plan.expand_sweep(sweep)
        return sweep

    def work(self, sweep) -> int:
        base = sweep.base
        return sum(
            base["n_replicas"] * base["n_bins"] * rounds
            for rounds in sweep.grid["rounds"]
        )

    def run(self, sweep, seed: int, scratch: Path):
        store = scratch / f"store-{seed}"
        if store.exists():
            shutil.rmtree(store)
        scheduler.run_sweep(
            sweep, store, seed=seed, engine="batched", kernel=self.kernel,
            n_workers=N_WORKERS, n_threads=N_THREADS,
        )
        return store

    @staticmethod
    def _stored(store: Path) -> Dict[str, np.ndarray]:
        opened = ResultStore.open(store)
        arrays = {"manifest": np.frombuffer(opened.manifest_bytes(), np.uint8)}
        for record in opened.records():
            for key, value in opened.replicas(record["point_id"]).items():
                arrays[f"{record['index']:03d}.{key}"] = value
        return arrays

    def digest(self, store: Path) -> str:
        return _digest(self._stored(store))

    def store_bytes(self, store: Path) -> int:
        return sum(p.stat().st_size for p in store.rglob("*") if p.is_file())

    def cleanup(self, store: Path) -> None:
        shutil.rmtree(store)

    def check(self, sweep, store: Path) -> List[str]:
        opened = ResultStore.open(store)
        records = opened.records()
        shards = list((store / ResultStore.SHARD_DIR).glob("*.npz"))
        errors = []
        if len(records) != self.points or len(shards) != self.points:
            errors.append(
                f"store holds {len(records)} manifest lines and {len(shards)} "
                f"shards, expected {self.points} of each"
            )
        R, n = self._base["n_replicas"], self._base["n_bins"]
        for record in records:
            vectors = opened.replicas(record["point_id"])
            rounds = record["config"]["rounds"]
            if any(np.asarray(v).shape != (R,) for v in vectors.values()):
                errors.append(f"point {record['index']}: not one value per replica")
                continue
            if not (vectors["rounds"] == rounds).all():
                errors.append(f"point {record['index']}: rounds != {rounds}")
            # n conserved balls: a max load in [1, n], at most n - 1 empty bins
            top, empty = vectors["final_max_load"], vectors["final_empty_bins"]
            if not ((top >= 1) & (top <= n) & (empty <= n - 1)).all():
                errors.append(f"point {record['index']}: loads cannot hold {n} balls")
            if not (vectors["window_max_load"] >= top).all():
                errors.append(f"point {record['index']}: window max below final max")
        return errors


# Why each workload exists, and what it should and should not move, is
# in README.md next to this file.
WORKLOADS = {
    w.name: w
    for w in (
        ConvergeFused(
            "converge_fused", kernel="native",
            process="rbb", n_bins=1024, n_replicas=256, rounds=2048,
            start="all_in_one", metrics="max_load,legitimacy",
            observe_every=16,
        ),
        FaultsSegmented(
            "faults_segmented", kernel="native",
            process="faulty", adversary="concentrate", fault_period=32,
            n_bins=1024, n_replicas=512, rounds=512, metrics="histogram",
            observe_every=8,
        ),
        EnsembleWorkload(
            "greedy_d", kernel="auto",
            process="d_choices", d=2, n_bins=1024, n_replicas=256, rounds=16,
            start="random_uniform",
        ),
        SweepWide(
            "sweep_wide", points=16,
            process="rbb", n_bins=256, n_replicas=512, start="random_uniform",
        ),
    )
}


def setup(name: str):
    """What every CLI call pays before its first op: import, kernels, specs.

    ``run.py`` times this in fresh interpreters for ``setup_s``.
    """
    workload = WORKLOADS[name]
    for kernel in workload.kernels:
        if native.get_kernel(kernel) is None:
            raise SystemExit(
                f"{kernel} kernel unavailable: {native.native_status(kernel)}"
            )
    return workload.spec()
