"""Exact-chain conformance and trace verification of the ensemble engine.

At small ``n`` the full configuration chain is exactly enumerable
(:mod:`repro.markov.small_n`), so every engine coordinate — the numpy
kernel in-process and sharded, both threaded C kernels, fused and
segmented observation, every adversary/baseline/walk with an exact
kernel — can be *confronted* with ground truth instead of merely
cross-checked against another simulator.

Three layers:

:mod:`repro.verify.conformance`
    Statistical gates: empirical distributions over ``R`` replicas vs
    exact chain powers, pooled chi-square at Bonferroni-safe thresholds
    (:mod:`repro.verify.stats`, :mod:`repro.verify.exact`,
    :mod:`repro.verify.cases`).
:mod:`repro.verify.trace`
    Exact gates: recorded ``(T, R, n)`` traces replayed through
    machine-checked invariants, plus fused-vs-segmented bit-equality.
:mod:`repro.verify.artifact`
    Replayable TLC-style counterexamples in ``.verify/`` — every
    failure is one ``repro verify --replay`` away from a local repro.
:mod:`repro.verify.scenario`
    Scenario-interpreter gates: exact bit-equality of no-op scenarios
    against static runs at every engine coordinate, event-trace ball
    accounting, and observation-schedule conformance.

CLI: ``repro verify [--level smoke|full]`` (the smoke tier is a CI
gate); pytest smoke coverage lives in ``tests/test_verify_*.py``.
"""

from .artifact import (
    CounterexampleArtifact,
    DEFAULT_ARTIFACT_DIR,
    list_artifacts,
    load_artifact,
    write_artifact,
)
from .cases import ConformanceCase, VERIFY_LEVELS, build_cases, case_by_name
from .conformance import (
    CheckOutcome,
    ConformanceReport,
    replay_artifact,
    run_case,
    run_conformance,
)
from .exact import (
    adversary_matrix,
    distribution_after,
    empty_bins_pmf,
    max_load_pmf,
    window_max_pmf,
    window_min_empty_pmf,
)
from .report import ground_truth_rows, render_verification_doc
from .scenario import (
    NOOP_SCENARIO,
    check_observation_schedule,
    check_scenario_event_invariants,
    noop_differences,
    run_noop_equality,
)
from .stats import GofResult, bonferroni_alpha, pooled_chi_square, total_variation
from .trace import (
    InvariantViolation,
    TraceCheckResult,
    check_trace_invariants,
    fused_vs_segmented,
)

__all__ = [
    "CounterexampleArtifact",
    "DEFAULT_ARTIFACT_DIR",
    "list_artifacts",
    "load_artifact",
    "write_artifact",
    "ConformanceCase",
    "VERIFY_LEVELS",
    "build_cases",
    "case_by_name",
    "CheckOutcome",
    "ConformanceReport",
    "replay_artifact",
    "run_case",
    "run_conformance",
    "adversary_matrix",
    "distribution_after",
    "empty_bins_pmf",
    "max_load_pmf",
    "window_max_pmf",
    "window_min_empty_pmf",
    "ground_truth_rows",
    "render_verification_doc",
    "NOOP_SCENARIO",
    "check_observation_schedule",
    "check_scenario_event_invariants",
    "noop_differences",
    "run_noop_equality",
    "GofResult",
    "bonferroni_alpha",
    "pooled_chi_square",
    "total_variation",
    "InvariantViolation",
    "TraceCheckResult",
    "check_trace_invariants",
    "fused_vs_segmented",
]
