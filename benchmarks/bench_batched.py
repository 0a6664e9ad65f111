"""Throughput benchmark: threaded native kernels vs one replica at a time.

The acceptance scale is ``R = 4096`` replicas and ``n = 1024`` bins for the
compiled kernels.  The baseline runs each single-replica simulator's own
``run()`` (``RepeatedBallsIntoBins``, ``DChoicesProcess``,
``FaultyProcess``, ``ConstrainedParallelWalks``) once per replica, one seed
per replica.  That is embarrassingly linear in the replica count, so the
baseline is *sampled* at a small replica count (``R = 64``) and
extrapolated linearly — timing 4096 Python replicas directly would add
minutes of wall clock without changing the answer.  The baseline cases keep
their historical ``*_sequential_baseline`` names.

Scenarios:

``rbb`` (plain)
    The repeated balls-into-bins process over 2000 rounds through the
    threaded native kernel.  Headline target: **100x** over the
    single-replica baseline.  The kernel parallelizes across replicas, so the
    target is pro-rated on small machines: the enforced floor is
    ``min(100, 12.5 * visible_cores)`` — a box with >= 8 cores must deliver
    the full 100x, a 1-core box must still deliver 12.5x single-threaded.
``rbb_observed``
    The same run collecting ``max_load`` + ``legitimacy`` at an
    ``observe_every=16`` stride.  With fused in-kernel observation the
    per-segment statistics are computed inside the C round loop, so the
    observed run must hit the *same* pro-rated 100x target as the plain
    run (observation is no longer a tax).
``rbb_numpy``
    The pure-numpy batched kernel, compared at ``R = 256`` (the historic
    acceptance scale; at ``R = 4096`` the numpy kernel's 32 MB working set
    thrashes cache and the comparison stops measuring the engine).  It
    must still beat the single-replica baseline by 1.2x.
``greedy_d``
    The repeated Greedy[d] allocator (``d = 2``, numpy-only): >= 10x.
``adversarial``
    The plain process under a periodic concentrate adversary; segmented
    native execution must retain >= 10x.
``walks``
    Topology-constrained walks on the 32x32 torus.  The threaded walk
    kernel's floor rises to ``min(50, 10 * visible_cores)`` (was 10x);
    the numpy batched walks are compared at ``R = 256`` against a 1.2x
    floor.
``scenario``
    A three-event scenario (burst / adversary strike / drain) through the
    ``repro.scenarios`` interpreter vs the identical workload hand-coded
    as direct segment runs and state edits.  Both sides are best-of-5,
    interleaved; the interpreter must stay within **5%** of the hand-segmented run
    (speedup >= 0.95), so compiling and folding never become a tax on
    native-kernel segments.

Run it as a script; it exits 1 when a floor is missed::

    PYTHONPATH=src python benchmarks/bench_batched.py
"""

from __future__ import annotations

import time
from typing import Dict, List

import numpy as np

from repro.adversary.faulty_process import FaultSchedule, FaultyProcess
from repro.baselines.d_choices import DChoicesProcess
from repro.core.native import (
    available_cpu_count,
    native_available,
    native_status,
    native_threading,
)
from repro.core.process import RepeatedBallsIntoBins
from repro.graphs import ConstrainedParallelWalks, resolve_topology
from repro.parallel.ensemble import EnsembleSpec, run_ensemble
from repro.parallel.seeding import trial_seed

N_BINS = 1024
SEED = 0
OBSERVE_EVERY = 16
WALKS_TOPOLOGY = "torus:32x32"
#: Single-replica sample size; its wall clock is extrapolated linearly.
BASELINE_REPLICAS = 64
#: Replica counts for the native-kernel and the numpy-kernel scenarios.
NATIVE_REPLICAS = 4096
NUMPY_REPLICAS = 256
#: Round windows: plain/observed rbb and the scenario, Greedy[2],
#: adversarial (with its fault period) and graph walks.
ROUNDS = 2000
DCHOICES_ROUNDS = 12
FAULTY_ROUNDS = 1000
FAULT_PERIOD = 250
WALKS_ROUNDS = 200

#: Headline target for the threaded rbb kernel (plain and observed), and
#: the per-core floor it is pro-rated against on machines with fewer than
#: 8 visible cores.
RBB_TARGET = 100.0
RBB_PER_CORE_FLOOR = 12.5
#: The threaded walk kernel's raised floor (was 10x) and per-core pro-rate.
WALKS_TARGET = 50.0
WALKS_PER_CORE_FLOOR = 10.0
#: Numpy-kernel comparisons (at the numpy scale) must beat the baseline.
NUMPY_TARGET = 1.2
#: Batched Greedy[2] / adversarial ensembles keep their 10x floors.
DCHOICES_TARGET = 10.0
FAULTY_TARGET = 10.0
#: The scenario interpreter must stay within 5% of a hand-segmented run.
SCENARIO_OVERHEAD_TARGET = 0.95


def prorated(full_target: float, per_core_floor: float) -> float:
    """The enforced speedup floor on this machine.

    The native kernels parallelize across replicas, so the headline target
    assumes cores to run on: ``min(full_target, per_core_floor * cores)``
    keeps the check honest on small CI boxes while still demanding the
    full target wherever ``cores >= full_target / per_core_floor``.
    """
    return min(full_target, per_core_floor * available_cpu_count())


def _spec(n_replicas: int, process: str = "rbb") -> EnsembleSpec:
    common = dict(n_bins=N_BINS, n_replicas=n_replicas, start="balanced")
    if process == "rbb":
        return EnsembleSpec(rounds=ROUNDS, **common)
    if process == "rbb_observed":
        return EnsembleSpec(
            rounds=ROUNDS,
            metrics="max_load,legitimacy",
            observe_every=OBSERVE_EVERY,
            **common,
        )
    if process == "d_choices":
        return EnsembleSpec(
            rounds=DCHOICES_ROUNDS, process="d_choices", d=2, **common
        )
    if process == "faulty":
        return EnsembleSpec(
            rounds=FAULTY_ROUNDS,
            process="faulty",
            adversary="concentrate",
            fault_period=FAULT_PERIOD,
            **common,
        )
    if process == "graph_walks":
        return EnsembleSpec(
            rounds=WALKS_ROUNDS,
            process="graph_walks",
            topology=WALKS_TOPOLOGY,
            **common,
        )
    if process == "scenario":
        import json

        return EnsembleSpec(
            rounds=ROUNDS,
            scenario=json.dumps({"events": _scenario_events(ROUNDS)}),
            **common,
        )
    raise ValueError(process)


def _scenario_events(rounds: int) -> List[dict]:
    """The benchmark's three-event schedule, scaled to the round window."""
    return [
        {"kind": "burst", "round": max(rounds // 4, 1), "count": N_BINS // 4},
        {
            "kind": "adversary",
            "round": max(rounds // 2, 2),
            "adversary": "concentrate",
        },
        {"kind": "drain", "round": max(3 * rounds // 4, 3), "count": N_BINS // 4},
    ]


def _timed_hand_segmented(n_replicas: int, kernel: str) -> float:
    """The scenario workload hand-coded against the process API directly.

    Runs the exact segment/edit sequence the interpreter would issue —
    engine calls between event rounds, vectorized state edits at them —
    with none of the scenario machinery, so the difference to the
    ``scenario`` case is pure compile/fold/dispatch overhead.
    """
    from repro.core.batched import BatchedRepeatedBallsIntoBins
    from repro.core.config import LoadConfiguration
    from repro.scenarios.events import apply_event
    from repro.scenarios.spec import CONSERVING_KINDS, ScenarioEvent

    events = [
        (entry["round"], ScenarioEvent.from_dict(entry))
        for entry in _scenario_events(ROUNDS)
    ]
    start = time.perf_counter()
    process = BatchedRepeatedBallsIntoBins(
        N_BINS,
        n_replicas,
        initial=LoadConfiguration.balanced(N_BINS),
        seed=SEED,
        kernel=kernel,
    )
    cursor = 0
    for when, event in events:
        if when - 1 > cursor:
            process.run(when - 1 - cursor)
            cursor = when - 1
        edited = apply_event(event, process.loads, process.rng)
        if event.kind in CONSERVING_KINDS:
            process.inject_loads(edited)
        else:
            process.replace_loads(edited)
    process.run(ROUNDS - cursor)
    return max(time.perf_counter() - start, 1e-9)


def _single_replica(process: str, seed):
    """One replica of ``process`` as its single-replica simulator."""
    rng = np.random.default_rng(seed)
    if process == "d_choices":
        return DChoicesProcess(N_BINS, d=2, seed=rng)
    if process == "faulty":
        return FaultyProcess(
            N_BINS,
            adversary="concentrate",
            schedule=FaultSchedule.every(FAULT_PERIOD),
            seed=rng,
        )
    if process == "graph_walks":
        return ConstrainedParallelWalks(resolve_topology(WALKS_TOPOLOGY), seed=rng)
    return RepeatedBallsIntoBins(N_BINS, seed=rng)


def _timed_single_replicas(process: str, rounds: int) -> float:
    """Run ``BASELINE_REPLICAS`` replicas one at a time, one seed each."""
    start = time.perf_counter()
    for replica in range(BASELINE_REPLICAS):
        simulator = _single_replica(process, trial_seed(SEED, replica))
        assert simulator.run(rounds).rounds == rounds
    return max(time.perf_counter() - start, 1e-9)


def _timed(spec: EnsembleSpec, kernel: str = "auto") -> float:
    start = time.perf_counter()
    result = run_ensemble(spec, seed=SEED, kernel=kernel)
    elapsed = time.perf_counter() - start
    assert result.n_replicas == spec.n_replicas
    assert (result.rounds == spec.rounds).all()
    return max(elapsed, 1e-9)


def _case(seconds: float, replicas: int, rounds: int, speedup: float) -> dict:
    return {
        "seconds": round(seconds, 4),
        "replica_rounds_per_s": round(replicas * rounds / seconds, 1),
        "speedup": round(speedup, 2),
    }


def measure() -> Dict[str, dict]:
    """Time every scenario and derive speedups vs the extrapolated baseline.

    Returns a ``case name -> {seconds, replica_rounds_per_s, speedup}``
    mapping.  Baseline cases carry ``speedup = 1.0`` and the *sampled* wall
    clock; their extrapolation factor is ``NATIVE_REPLICAS /
    BASELINE_REPLICAS``.
    """
    cases: Dict[str, dict] = {}

    def baseline(process: str, rounds: int) -> float:
        """Per-replica single-replica seconds, from a small sampled run."""
        sample = _timed_single_replicas(process, rounds)
        cases[f"{process}_sequential_baseline"] = _case(
            sample, BASELINE_REPLICAS, rounds, 1.0
        )
        return sample / BASELINE_REPLICAS

    # --- repeated balls-into-bins -----------------------------------
    seq_per_replica = baseline("rbb", ROUNDS)
    npy = _timed(_spec(NUMPY_REPLICAS), "numpy")
    cases["rbb_numpy"] = _case(
        npy, NUMPY_REPLICAS, ROUNDS, seq_per_replica * NUMPY_REPLICAS / npy
    )
    if native_available():
        nat = _timed(_spec(NATIVE_REPLICAS), "native")
        cases["rbb_native"] = _case(
            nat, NATIVE_REPLICAS, ROUNDS, seq_per_replica * NATIVE_REPLICAS / nat
        )
        obs = _timed(_spec(NATIVE_REPLICAS, "rbb_observed"), "native")
        cases["rbb_native_observed"] = _case(
            obs, NATIVE_REPLICAS, ROUNDS, seq_per_replica * NATIVE_REPLICAS / obs
        )

    # --- Greedy[2] (numpy-only) -------------------------------------
    d_per_replica = baseline("d_choices", DCHOICES_ROUNDS)
    db = _timed(_spec(NATIVE_REPLICAS, "d_choices"), "numpy")
    cases["greedy2_batched"] = _case(
        db, NATIVE_REPLICAS, DCHOICES_ROUNDS, d_per_replica * NATIVE_REPLICAS / db
    )

    # --- adversarial -------------------------------------------------
    f_per_replica = baseline("faulty", FAULTY_ROUNDS)
    fb = _timed(_spec(NATIVE_REPLICAS, "faulty"))
    cases["adversarial_batched"] = _case(
        fb, NATIVE_REPLICAS, FAULTY_ROUNDS, f_per_replica * NATIVE_REPLICAS / fb
    )

    # --- graph walks -------------------------------------------------
    w_per_replica = baseline("graph_walks", WALKS_ROUNDS)
    wn = _timed(_spec(NUMPY_REPLICAS, "graph_walks"), "numpy")
    cases["walks_numpy"] = _case(
        wn, NUMPY_REPLICAS, WALKS_ROUNDS, w_per_replica * NUMPY_REPLICAS / wn
    )
    if native_available("walks"):
        wnat = _timed(_spec(NATIVE_REPLICAS, "graph_walks"), "native")
        cases["walks_native"] = _case(
            wnat, NATIVE_REPLICAS, WALKS_ROUNDS, w_per_replica * NATIVE_REPLICAS / wnat
        )

    # --- scenario interpreter overhead -------------------------------
    kernel = "native" if native_available() else "numpy"
    scen_R = NATIVE_REPLICAS if kernel == "native" else NUMPY_REPLICAS
    # best-of-5 interleaved: event application allocates (R, n) matrices,
    # and page-fault / preemption noise on those allocations dwarfs the
    # interpreter overhead being measured at best-of-3
    hand_times, scen_times = [], []
    for _ in range(5):
        hand_times.append(_timed_hand_segmented(scen_R, kernel))
        scen_times.append(_timed(_spec(scen_R, "scenario"), kernel))
    hand, scen = min(hand_times), min(scen_times)
    cases["scenario_hand_segmented"] = _case(hand, scen_R, ROUNDS, 1.0)
    cases["scenario_interpreter"] = _case(scen, scen_R, ROUNDS, hand / scen)
    return cases


def check_targets(cases: Dict[str, dict]) -> List[str]:
    """Evaluate the speedup floors; returns failure messages."""
    failures: List[str] = []

    def check(name: str, target: float, label: str) -> None:
        if name not in cases:
            return
        speedup = cases[name]["speedup"]
        if speedup < target:
            failures.append(
                f"{label} speedup {speedup:.2f}x < {target:.1f}x target"
            )

    rbb_floor = prorated(RBB_TARGET, RBB_PER_CORE_FLOOR)
    walks_floor = prorated(WALKS_TARGET, WALKS_PER_CORE_FLOOR)
    check("rbb_numpy", NUMPY_TARGET, "plain numpy kernel")
    check("rbb_native", rbb_floor, "threaded native rbb kernel")
    check(
        "rbb_native_observed",
        rbb_floor,
        f"fused observed native run (observe_every={OBSERVE_EVERY})",
    )
    check("greedy2_batched", DCHOICES_TARGET, "batched Greedy[2]")
    check("adversarial_batched", FAULTY_TARGET, "batched adversarial")
    check("walks_numpy", NUMPY_TARGET, "batched numpy walks")
    check("walks_native", walks_floor, "threaded native walk kernel")
    check(
        "scenario_interpreter",
        SCENARIO_OVERHEAD_TARGET,
        "scenario interpreter vs hand-segmented",
    )
    return failures


def main() -> int:
    """Print the throughput table and enforce the speedup floors.

    Returns a non-zero exit code when a floor is missed, or when the rbb
    kernel compiled but the walk kernel did not, so CI needs only this one
    invocation.
    """
    cores = available_cpu_count()
    print(
        f"R={NATIVE_REPLICAS} native / R={NUMPY_REPLICAS} numpy / "
        f"R={BASELINE_REPLICAS} single-replica sample, n={N_BINS} bins; "
        f"{cores} visible core(s)"
    )
    print(
        f"native rbb kernel  : {native_status()} "
        f"[threading: {native_threading()}]"
    )
    print(
        f"native walk kernel : {native_status('walks')} "
        f"[threading: {native_threading('walks')}]"
    )
    print(
        f"enforced floors: rbb {prorated(RBB_TARGET, RBB_PER_CORE_FLOOR):.1f}x "
        f"(headline {RBB_TARGET:.0f}x), walks "
        f"{prorated(WALKS_TARGET, WALKS_PER_CORE_FLOOR):.1f}x "
        f"(headline {WALKS_TARGET:.0f}x)"
    )
    cases = measure()
    print(
        f"{'case':28s} {'wall clock':>12s} {'replica-rounds/s':>18s} "
        f"{'speedup':>9s}"
    )
    for name, case in cases.items():
        print(
            f"{name:28s} {case['seconds']:10.2f} s "
            f"{case['replica_rounds_per_s']:18,.0f} {case['speedup']:8.1f}x"
        )
    failures = check_targets(cases)
    if "rbb_native" in cases and "walks_native" not in cases:
        failures.append(
            "a C compiler is available (the rbb kernel compiled) but the walk "
            f"kernel did not: {native_status('walks')}"
        )
    for failure in failures:
        print(f"FAILED: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
