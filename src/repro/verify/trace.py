"""Stateful trace verification: machine-checked invariants over recorded runs.

Where :mod:`repro.verify.conformance` is statistical (an engine can only
be *probably* right), this module is exact: it records a full ``(T, R, n)``
trace of an engine run and replays it through invariants that must hold
round for round —

``ball_conservation``
    Every snapshot of every replica sums to that replica's initial ball
    count.  (The batched engines also enforce this internally; the trace
    check closes the loop *after* all observer plumbing.)
``non_negative``
    No snapshot contains a negative load.
``series_max`` / ``series_empty``
    The max-load and empty-bins tracker *series* equal the same
    statistics recomputed from the raw trace at every observation round
    — the observer pipeline may not drift from the state it observes.
``window_max`` / ``window_min_empty``
    The engine's reported window statistics equal the fold of the
    recomputed series.
``first_legitimate``
    The engine's ``first_legitimate_round`` equals the first observation
    round whose recomputed max load clears the legitimacy threshold
    (exact at ``observe_every=1`` without early stopping).
``legitimacy_monotone``
    The legitimacy tracker's ``first_legitimate_round`` never exceeds
    its ``first_violation_after_hit`` — window stats may only tighten.

A violation produces a TLC-style minimized counterexample: the trace is
truncated at the first violating observation, restricted to the first
violating replica, and written as a replayable ``.verify/`` artifact
(seed, resolved spec, engine coordinates, round-by-round state diff).

:func:`fused_vs_segmented` separately pins the PR 6 contract: with the
native kernel, fused in-kernel observation and the segmented reference
loop must be **bit-identical** — same final loads, same windows, same
tracker summaries — because both consume the per-replica xoshiro streams
identically.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from .artifact import CounterexampleArtifact, write_artifact
from .cases import ENGINE
from .conformance import CheckOutcome, ConformanceReport, _fusion_env
from .stats import GofResult
from ..core.config import LoadConfiguration, legitimacy_threshold
from ..errors import ConfigurationError
from ..parallel.ensemble import EnsembleSpec, run_ensemble
from ..rng import as_seed_sequence
from ..types import SeedLike

__all__ = [
    "InvariantViolation",
    "TraceCheckResult",
    "check_trace_invariants",
    "fused_vs_segmented",
    "replay_invariant_artifact",
]

#: Metrics the trace checker needs on the wire.
TRACE_METRICS = ("trace", "max_load", "empty_bins", "legitimacy")


@dataclass(frozen=True)
class InvariantViolation:
    """One exact invariant broken at one (round, replica)."""

    invariant: str
    round_index: int
    replica: int
    observed: Any
    expected: Any
    detail: str = ""

    def describe(self) -> str:
        text = (
            f"{self.invariant} violated at round {self.round_index}, "
            f"replica {self.replica}: observed {self.observed!r}, "
            f"expected {self.expected!r}"
        )
        return f"{text} ({self.detail})" if self.detail else text


@dataclass
class TraceCheckResult:
    """All violations of one traced run, plus the material to minimize."""

    spec: EnsembleSpec
    engine: Dict[str, Any]
    seed_entropy: int
    seed_spawn_key: Tuple[int, ...]
    violations: List[InvariantViolation] = field(default_factory=list)
    trace: Optional[np.ndarray] = None
    trace_rounds: Optional[np.ndarray] = None
    artifact_paths: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def emit_artifacts(self, directory: str) -> List[str]:
        """Write one minimized counterexample per distinct invariant."""
        seen = set()
        paths = []
        for violation in self.violations:
            if violation.invariant in seen:
                continue
            seen.add(violation.invariant)
            paths.append(self._emit_one(violation, directory))
        self.artifact_paths.extend(paths)
        return paths

    def _emit_one(self, violation: InvariantViolation, directory: str) -> str:
        replica = violation.replica
        # minimization: keep only the offending replica's history, cut at
        # the first violating observation — the shortest prefix that
        # still reproduces the failure
        diff: List[Dict[str, Any]] = []
        if self.trace is not None and self.trace_rounds is not None:
            for k, round_index in enumerate(self.trace_rounds.tolist()):
                if round_index > violation.round_index:
                    break
                diff.append(
                    {
                        "round": int(round_index),
                        "loads": self.trace[k, replica].tolist(),
                    }
                )
        spec_fields = {
            f.name: getattr(self.spec, f.name)
            for f in dataclasses.fields(self.spec)
        }
        spec_fields["metrics"] = list(spec_fields["metrics"])
        artifact = CounterexampleArtifact(
            kind="invariant",
            case=f"trace-{self.spec.process}",
            check=violation.invariant,
            seed_entropy=self.seed_entropy,
            seed_spawn_key=list(self.seed_spawn_key),
            spec=spec_fields,
            engine=dict(self.engine),
            violation={
                "invariant": violation.invariant,
                "round": violation.round_index,
                "replica": violation.replica,
                "observed": violation.observed,
                "expected": violation.expected,
                "detail": violation.detail,
                "state_history": diff,
            },
        )
        return write_artifact(artifact, directory)


def _expected_totals(spec: EnsembleSpec) -> Optional[np.ndarray]:
    """Per-replica ball totals the spec promises (None when start is random)."""
    start = spec.start
    if isinstance(start, str):
        if start == "random_uniform":
            m = spec.n_bins if spec.n_balls is None else spec.n_balls
            return np.full(spec.n_replicas, m, dtype=np.int64)
        maker = getattr(LoadConfiguration, start)
        total = int(maker(spec.n_bins, n_balls=spec.n_balls).as_array().sum())
        return np.full(spec.n_replicas, total, dtype=np.int64)
    if isinstance(start, LoadConfiguration):
        return np.full(
            spec.n_replicas, int(start.as_array().sum()), dtype=np.int64
        )
    arr = np.asarray(start)
    if arr.ndim == 1:
        return np.full(spec.n_replicas, int(arr.sum()), dtype=np.int64)
    return arr.sum(axis=1).astype(np.int64)


def _first_bad(mask: np.ndarray) -> Tuple[int, int]:
    """(observation index, replica) of the first True entry of a 2-D mask."""
    flat = int(np.flatnonzero(mask)[0])
    return flat // mask.shape[1], flat % mask.shape[1]


def check_trace_invariants(
    spec_config: Dict[str, Any],
    seed: SeedLike = 0,
    kernel: str = "numpy",
    n_threads: Optional[int] = None,
    fused: bool = True,
    artifacts_dir: Optional[str] = None,
) -> TraceCheckResult:
    """Record one run's full trace and machine-check every invariant.

    ``spec_config`` is an :class:`EnsembleSpec` field assignment; the
    trace/max-load/empty-bins/legitimacy metrics are attached on top of
    whatever it requests.  The faulty process is supported (conservation
    holds across injections) but its window statistics fold injected
    configurations, so the window invariants are only enforced for the
    fault-free families.
    """
    config = dict(spec_config)
    requested = config.get("metrics", ())
    if isinstance(requested, str):
        requested = tuple(part.strip() for part in requested.split(",") if part.strip())
    config["metrics"] = tuple(dict.fromkeys(tuple(requested) + TRACE_METRICS))
    spec = EnsembleSpec(**config)
    if spec.observe_every != 1:
        raise ConfigurationError(
            "trace invariants require observe_every=1 (the window and "
            "first-legitimate reconstructions are exact only at stride 1)"
        )
    root = as_seed_sequence(seed)
    engine_coords = {
        "engine": ENGINE,
        "kernel": kernel,
        "n_threads": n_threads,
        "fused": fused,
        "n_workers": 1,
        "runner": "trace",
    }
    with _fusion_env(fused):
        result = run_ensemble(
            spec, seed=root, kernel=kernel, n_threads=n_threads
        )
    check = TraceCheckResult(
        spec=spec,
        engine=engine_coords,
        seed_entropy=int(root.entropy),
        seed_spawn_key=tuple(int(k) for k in root.spawn_key),
    )
    trace_payload = result.metrics["trace"]
    trace = np.asarray(trace_payload.series["trace"])
    rounds = np.asarray(trace_payload.rounds)
    check.trace = trace
    check.trace_rounds = rounds
    violations = check.violations

    if trace.shape[0] == 0:
        return check

    # --- exact state invariants ---------------------------------------
    totals = _expected_totals(spec)
    sums = trace.sum(axis=2)  # (T, R)
    bad = sums != totals[None, :]
    if bad.any():
        k, r = _first_bad(bad)
        violations.append(
            InvariantViolation(
                "ball_conservation",
                int(rounds[k]),
                r,
                observed=int(sums[k, r]),
                expected=int(totals[r]),
                detail="per-replica ball total changed mid-run",
            )
        )
    negative = (trace < 0).any(axis=2)
    if negative.any():
        k, r = _first_bad(negative)
        violations.append(
            InvariantViolation(
                "non_negative",
                int(rounds[k]),
                r,
                observed=trace[k, r].tolist(),
                expected="loads >= 0",
            )
        )

    # --- observer-series consistency ----------------------------------
    recomputed_max = trace.max(axis=2)  # (T, R)
    recomputed_empty = (trace == 0).sum(axis=2)
    for name, payload_key, recomputed in (
        ("series_max", "max_load", recomputed_max),
        ("series_empty", "empty_bins", recomputed_empty),
    ):
        payload = result.metrics[payload_key]
        series = np.asarray(payload.series[payload_key])
        if series.shape != recomputed.shape or not np.array_equal(
            np.asarray(payload.rounds), rounds
        ):
            violations.append(
                InvariantViolation(
                    name,
                    int(rounds[0]),
                    0,
                    observed=list(series.shape),
                    expected=list(recomputed.shape),
                    detail="observer series misaligned with the trace",
                )
            )
            continue
        bad = series != recomputed
        if bad.any():
            k, r = _first_bad(bad)
            violations.append(
                InvariantViolation(
                    name,
                    int(rounds[k]),
                    r,
                    observed=int(series[k, r]),
                    expected=int(recomputed[k, r]),
                    detail="tracker series disagrees with the recorded state",
                )
            )

    # --- window and legitimacy reconstruction -------------------------
    if spec.process != "faulty" and not spec.stop_when_legitimate:
        window_max = recomputed_max.max(axis=0)
        bad_max = np.asarray(result.max_load_seen) != window_max
        if bad_max.any():
            r = int(np.flatnonzero(bad_max)[0])
            violations.append(
                InvariantViolation(
                    "window_max",
                    int(rounds[-1]),
                    r,
                    observed=int(result.max_load_seen[r]),
                    expected=int(window_max[r]),
                    detail="engine window max != fold of the trace",
                )
            )
        window_min = recomputed_empty.min(axis=0)
        bad_min = np.asarray(result.min_empty_bins_seen) != window_min
        if bad_min.any():
            r = int(np.flatnonzero(bad_min)[0])
            violations.append(
                InvariantViolation(
                    "window_min_empty",
                    int(rounds[-1]),
                    r,
                    observed=int(result.min_empty_bins_seen[r]),
                    expected=int(window_min[r]),
                    detail="engine window min-empty != fold of the trace",
                )
            )
        threshold = legitimacy_threshold(spec.n_bins, spec.beta)
        legit = recomputed_max <= threshold  # (T, R)
        first_legit = np.full(spec.n_replicas, -1, dtype=np.int64)
        for k in range(legit.shape[0] - 1, -1, -1):
            first_legit = np.where(legit[k], rounds[k], first_legit)
        bad_fl = np.asarray(result.first_legitimate_round) != first_legit
        if bad_fl.any():
            r = int(np.flatnonzero(bad_fl)[0])
            violations.append(
                InvariantViolation(
                    "first_legitimate",
                    int(rounds[-1]),
                    r,
                    observed=int(result.first_legitimate_round[r]),
                    expected=int(first_legit[r]),
                    detail="engine hitting round != trace reconstruction",
                )
            )

    # --- legitimacy tracker monotonicity ------------------------------
    legit_payload = result.metrics.get("legitimacy")
    if legit_payload is not None:
        first = np.asarray(legit_payload.summaries["first_legitimate_round"])
        relapse = np.asarray(
            legit_payload.summaries["first_violation_after_hit"]
        )
        both = (first >= 0) & (relapse >= 0)
        bad = both & (relapse <= first)
        if bad.any():
            r = int(np.flatnonzero(bad)[0])
            violations.append(
                InvariantViolation(
                    "legitimacy_monotone",
                    int(relapse[r]),
                    r,
                    observed=int(relapse[r]),
                    expected=f"> {int(first[r])}",
                    detail="relapse recorded before the first hit",
                )
            )

    if violations and artifacts_dir is not None:
        check.emit_artifacts(artifacts_dir)
    return check


def fused_vs_segmented(
    spec_config: Dict[str, Any],
    seed: SeedLike = 0,
    n_threads: Optional[int] = None,
) -> List[InvariantViolation]:
    """Bit-equality of the fused and segmented native observation paths.

    Runs the same spec twice with the native kernel — once with in-kernel
    observation, once with ``REPRO_NATIVE_FUSED=0`` forcing the segmented
    reference loop — and demands identical final loads, windows, hitting
    rounds, and tracker summaries.
    """
    config = dict(spec_config)
    requested = config.get("metrics", ())
    if isinstance(requested, str):
        requested = tuple(part.strip() for part in requested.split(",") if part.strip())
    config["metrics"] = tuple(
        dict.fromkeys(tuple(requested) + ("max_load", "empty_bins", "legitimacy"))
    )
    spec = EnsembleSpec(**config)
    root = as_seed_sequence(seed)
    results = {}
    for fused in (True, False):
        # a fresh SeedSequence per run: spawn() mutates its parent
        # (n_children_spawned), so reusing one object would give the
        # second run different engine streams
        run_seed = np.random.SeedSequence(
            entropy=root.entropy, spawn_key=tuple(root.spawn_key)
        )
        with _fusion_env(fused):
            results[fused] = run_ensemble(
                spec, seed=run_seed, kernel="native", n_threads=n_threads
            )
    violations: List[InvariantViolation] = []

    def compare(name: str, a: np.ndarray, b: np.ndarray) -> None:
        a = np.asarray(a)
        b = np.asarray(b)
        if a.shape != b.shape or not np.array_equal(a, b):
            where = (
                np.flatnonzero((a != b).reshape(-1))[:1].tolist()
                if a.shape == b.shape
                else []
            )
            replica = int(where[0]) if where else -1
            violations.append(
                InvariantViolation(
                    f"fused_equal:{name}",
                    -1,
                    replica,
                    observed="fused != segmented",
                    expected="bit-identical",
                    detail=f"first differing flat index {where}",
                )
            )

    fused_result, seg_result = results[True], results[False]
    compare("final_loads", fused_result.final_loads, seg_result.final_loads)
    compare("max_load_seen", fused_result.max_load_seen, seg_result.max_load_seen)
    compare(
        "min_empty_bins_seen",
        fused_result.min_empty_bins_seen,
        seg_result.min_empty_bins_seen,
    )
    compare(
        "first_legitimate_round",
        fused_result.first_legitimate_round,
        seg_result.first_legitimate_round,
    )
    for metric_name, payload in fused_result.metrics.items():
        other = seg_result.metrics[metric_name]
        for key, vector in payload.summaries.items():
            compare(f"{metric_name}.{key}", vector, other.summaries[key])
    return violations


def replay_invariant_artifact(artifact: CounterexampleArtifact) -> ConformanceReport:
    """Re-run the traced check an invariant artifact records."""
    spec = dict(artifact.spec)
    spec["metrics"] = tuple(spec.get("metrics", ()))
    if isinstance(spec.get("start"), list):
        spec["start"] = np.asarray(spec["start"])
    engine = artifact.engine
    check = check_trace_invariants(
        spec,
        seed=artifact.seed_sequence(),
        kernel=engine.get("kernel", "numpy"),
        n_threads=engine.get("n_threads"),
        fused=engine.get("fused", True),
    )
    outcomes = [
        CheckOutcome(
            case=artifact.case,
            engine_label=engine.get("engine", ENGINE),
            check=violation.invariant,
            horizon=violation.round_index,
            gof=GofResult(float("inf"), 0, 0.0, 1, 1, 1.0, 1.0),
            alpha=0.0,
            passed=False,
        )
        for violation in check.violations
    ]
    if not outcomes:
        outcomes = [
            CheckOutcome(
                case=artifact.case,
                engine_label=engine.get("engine", ENGINE),
                check=artifact.check,
                horizon=-1,
                gof=GofResult(0.0, 0, 1.0, 1, 1, 0.0, 0.0),
                alpha=0.0,
                passed=True,
            )
        ]
    return ConformanceReport(
        level="replay",
        seed_entropy=artifact.seed_entropy,
        alpha_total=0.0,
        alpha_per_test=0.0,
        outcomes=outcomes,
    )
