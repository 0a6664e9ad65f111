"""Drive the case catalog and gate each engine coordinate against exact chains.

One :func:`run_conformance` call expands a level's catalog, runs each
case at each horizon under a deterministic seed tree, and pushes five
empirical distributions per run through the pooled chi-square gate:

* the full final-configuration distribution against ``mu_0 P^t``,
* its max-load and empty-bin functionals,
* the ``max_load_seen`` / ``min_empty_bins_seen`` window statistics
  against the exact ``(state, running statistic)`` DP.

Per-test thresholds are Bonferroni-corrected from one family-wise
``alpha_total``, counted over the *whole* invocation before anything
runs, so adding cases never silently weakens the gate.  Failures write
replayable counterexample artifacts (see :mod:`repro.verify.artifact`).

Seeding discipline (the contract the seeding tests pin down): the root
seed fans out through :func:`repro.parallel.seeding.trial_seed` —
``case_seed = trial_seed(root, case_index)``, then
``run_seed = trial_seed(case_seed, horizon_index)`` — and the engine
spawns its per-shard streams from ``run_seed`` exactly as documented in
:mod:`repro.parallel.ensemble`.  Sharded runs re-spawn per shard and are
therefore checked distributionally (the ``*-sharded`` cases).
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .artifact import CounterexampleArtifact, write_artifact
from .cases import ENGINE, ConformanceCase, build_cases, native_kernel_available
from .exact import (
    adversary_matrix,
    distribution_after,
    empty_bins_pmf,
    max_load_pmf,
    one_hot_distribution,
    state_index,
    window_max_pmf,
    window_min_empty_pmf,
)
from .stats import GofResult, bonferroni_alpha, pooled_chi_square
from ..core.config import LoadConfiguration
from ..core.token_process import TokenRepeatedBallsIntoBins
from ..errors import ConfigurationError, ReproError
from ..graphs.generators import resolve_topology
from ..markov.absorbing import BinLoadChain
from ..markov.small_n import (
    exact_greedy_d_transition_matrix,
    exact_rbb_transition_matrix,
    exact_walk_transition_matrix,
)
from ..parallel.ensemble import EnsembleSpec, check_engine, run_ensemble
from ..parallel.seeding import trial_seed
from ..rng import as_seed_sequence
from ..types import SeedLike

__all__ = [
    "CheckOutcome",
    "ConformanceReport",
    "run_conformance",
    "run_case",
    "replay_artifact",
]

#: Family-wise false-alarm budget of one full invocation.
DEFAULT_ALPHA_TOTAL = 1e-3


@dataclass(frozen=True)
class CheckOutcome:
    """One statistical gate decision."""

    case: str
    engine_label: str
    check: str
    horizon: int
    gof: GofResult
    alpha: float
    passed: bool
    artifact_path: Optional[str] = None


@dataclass
class ConformanceReport:
    """Everything one :func:`run_conformance` invocation decided."""

    level: str
    seed_entropy: int
    alpha_total: float
    alpha_per_test: float
    outcomes: List[CheckOutcome] = field(default_factory=list)
    skipped: List[Tuple[str, str]] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def n_checks(self) -> int:
        return len(self.outcomes)

    @property
    def failures(self) -> List[CheckOutcome]:
        return [o for o in self.outcomes if not o.passed]

    @property
    def passed(self) -> bool:
        return not self.failures

    def render(self) -> str:
        """Human-readable summary table."""
        lines = [
            f"verify level={self.level} seed={self.seed_entropy} "
            f"checks={self.n_checks} alpha_total={self.alpha_total:g} "
            f"(per-test {self.alpha_per_test:.2e}) "
            f"elapsed={self.elapsed_seconds:.1f}s",
            "",
            f"{'case':<38} {'engine':<28} {'check':<18} {'t':>3} "
            f"{'p-value':>10} {'TV':>7}  result",
        ]
        for o in self.outcomes:
            verdict = "ok" if o.passed else "FAIL"
            if o.artifact_path:
                verdict += f"  -> {o.artifact_path}"
            lines.append(
                f"{o.case:<38} {o.engine_label:<28} {o.check:<18} "
                f"{o.horizon:>3} {o.gof.p_value:>10.2e} "
                f"{o.gof.tv_distance:>7.4f}  {verdict}"
            )
        for name, reason in self.skipped:
            lines.append(f"{name:<38} skipped: {reason}")
        lines.append("")
        status = "PASS" if self.passed else f"FAIL ({len(self.failures)} checks)"
        lines.append(f"verify {self.level}: {status}")
        return "\n".join(lines)


@contextmanager
def _fusion_env(fused: bool):
    """Force the segmented native loop for ``fused=False`` cases."""
    if fused:
        yield
        return
    previous = os.environ.get("REPRO_NATIVE_FUSED")
    os.environ["REPRO_NATIVE_FUSED"] = "0"
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop("REPRO_NATIVE_FUSED", None)
        else:
            os.environ["REPRO_NATIVE_FUSED"] = previous


def _initial_config(spec: EnsembleSpec) -> Tuple[int, ...]:
    """The (shared) starting configuration a conformance spec describes."""
    start = spec.start
    if isinstance(start, str):
        if start == "random_uniform":
            raise ConfigurationError(
                "random starts have no single exact initial distribution; "
                "use a deterministic start family for conformance cases"
            )
        maker = getattr(LoadConfiguration, start)
        return tuple(
            int(x) for x in maker(spec.n_bins, n_balls=spec.n_balls).as_array()
        )
    if isinstance(start, LoadConfiguration):
        return tuple(int(x) for x in start.as_array())
    arr = np.asarray(start)
    if arr.ndim != 1:
        raise ConfigurationError(
            "per-replica start matrices are not supported by the verifier"
        )
    return tuple(int(x) for x in arr)


@dataclass(frozen=True)
class _GroundTruth:
    P: np.ndarray
    states: list
    initial: Tuple[int, ...]
    fault_rounds: Tuple[int, ...] = ()
    F: Optional[np.ndarray] = None


def _ground_truth(spec: EnsembleSpec, horizon: int) -> _GroundTruth:
    """Build the exact chain a spec's process family is checked against."""
    initial = _initial_config(spec)
    m = sum(initial)
    if spec.process == "d_choices":
        P, states = exact_greedy_d_transition_matrix(spec.n_bins, spec.d, m)
    elif spec.process == "graph_walks":
        P, states = exact_walk_transition_matrix(
            resolve_topology(spec.topology), m, constrained=spec.constrained
        )
    else:
        P, states = exact_rbb_transition_matrix(spec.n_bins, m)
    if spec.process == "faulty":
        schedule = spec.fault_schedule()
        fault_rounds = tuple(
            t for t in range(1, horizon + 1) if schedule.is_faulty(t)
        )
        F = adversary_matrix(spec.adversary, states)
        return _GroundTruth(P, states, initial, fault_rounds, F)
    if spec.scenario is not None:
        # scenario events fire *before* their round executes — the same
        # clock as the faulty process, so the fault-round machinery of the
        # exact layer carries over verbatim for adversary-only scenarios
        expanded = spec.resolved_scenario().expand_events(horizon)
        names = {event.adversary for _, event in expanded}
        if any(event.kind != "adversary" for _, event in expanded) or len(names) != 1:
            raise ConfigurationError(
                "conformance ground truth covers scenarios made of a single "
                "adversary's events only; gate other event kinds through "
                "repro.verify.scenario invariants instead"
            )
        fault_rounds = tuple(when for when, _ in expanded)
        F = adversary_matrix(names.pop(), states)
        return _GroundTruth(P, states, initial, fault_rounds, F)
    return _GroundTruth(P, states, initial)


def _config_counts(
    final_loads: np.ndarray, states: list
) -> Tuple[np.ndarray, float]:
    """Count final configurations; returns ``(counts, off_support_count)``."""
    index = state_index(states)
    counts = np.zeros(len(states))
    off_support = 0
    for row in np.asarray(final_loads, dtype=np.int64):
        key = tuple(int(x) for x in row)
        i = index.get(key)
        if i is None:
            off_support += 1
        else:
            counts[i] += 1
    return counts, float(off_support)


def _value_counts(
    observed: np.ndarray, values: np.ndarray, probs: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Align observed integer samples with an exact pmf's support.

    Observed values outside the exact support get zero-probability cells,
    which :func:`pooled_chi_square` treats as impossible events.
    """
    observed = np.asarray(observed, dtype=np.int64)
    support = [int(v) for v in values]
    extra = sorted(set(observed.tolist()) - set(support))
    all_values = support + extra
    prob_of = {int(v): float(p) for v, p in zip(values, probs)}
    counts = np.array(
        [float(np.count_nonzero(observed == v)) for v in all_values]
    )
    exact = np.array([prob_of.get(v, 0.0) for v in all_values])
    return counts, exact


# ----------------------------------------------------------------------
# Runners: empirical samples per (case, horizon)
# ----------------------------------------------------------------------
@dataclass
class _RunSamples:
    """Empirical material one runner hands to the gates."""

    final_loads: np.ndarray
    window_max: np.ndarray
    window_min_empty: np.ndarray
    #: Tri-state window-seeding convention: ``True`` folds the call-time
    #: configuration (token runner), ``False`` never does (the scenario
    #: interpreter, which starts its folds from scratch even when events
    #: fire), ``None`` defers to the exact layer's default (seed from the
    #: initial configuration exactly when fault rounds exist).
    seed_window_from_initial: Optional[bool] = None
    extra: Dict[str, np.ndarray] = field(default_factory=dict)


def _run_ensemble_case(
    case: ConformanceCase, spec: EnsembleSpec, seed
) -> _RunSamples:
    with _fusion_env(case.fused):
        result = run_ensemble(
            spec,
            seed=seed,
            n_workers=case.n_workers,
            kernel=case.kernel,
            n_threads=case.n_threads,
        )
    samples = _RunSamples(
        final_loads=result.final_loads,
        window_max=result.max_load_seen,
        window_min_empty=result.min_empty_bins_seen,
        seed_window_from_initial=False if spec.scenario is not None else None,
    )
    # free cross-check: the max_load/empty_bins tracker summaries must
    # agree with the engine's own window vectors (post-step folds only,
    # so the faulty process and scenario runs — which also fold injected
    # states — are exempt by design)
    if spec.process != "faulty" and spec.scenario is None:
        payload = result.metrics.get("max_load")
        if payload is not None:
            samples.extra["tracker_window_max"] = payload.summaries["window_max"]
        payload = result.metrics.get("empty_bins")
        if payload is not None:
            samples.extra["tracker_window_min"] = payload.summaries["window_min"]
    return samples


def _run_token_case(
    case: ConformanceCase, spec_config: dict, horizon: int, seed
) -> _RunSamples:
    R = int(spec_config["n_replicas"])
    n = int(spec_config["n_bins"])
    finals = np.zeros((R, n), dtype=np.int64)
    wmax = np.zeros(R, dtype=np.int64)
    wmin = np.zeros(R, dtype=np.int64)
    for i in range(R):
        process = TokenRepeatedBallsIntoBins(
            n, n_balls=spec_config.get("n_balls"), seed=trial_seed(seed, i)
        )
        result = process.run(horizon)
        finals[i] = process.loads
        wmax[i] = result.max_load_seen
        wmin[i] = result.min_empty_seen
    return _RunSamples(
        final_loads=finals,
        window_max=wmax,
        window_min_empty=wmin,
        seed_window_from_initial=True,
    )


def _check_absorbing_case(
    case: ConformanceCase, seed, alpha: float
) -> CheckOutcome:
    """Gate the Lemma 5 absorbing-chain sampler against its exact DP."""
    config = dict(case.spec_config)
    chain = BinLoadChain(int(config["n_bins"]))
    start = int(config["start_level"])
    horizon = int(config["horizon"])
    trials = int(config["trials"])
    taus = chain.simulate_absorption_times(
        start, trials, max_rounds=horizon, seed=np.random.default_rng(seed)
    )
    survival = chain.survival_probabilities(start, horizon)
    # pmf over absorption at t = 1..horizon, plus one censored cell
    pmf = survival[:-1] - survival[1:]
    censored_prob = float(survival[-1])
    observed = np.array(
        [float(np.count_nonzero(taus == t)) for t in range(1, horizon + 1)]
        + [float(np.count_nonzero(taus < 0))]
    )
    exact = np.concatenate([pmf, [censored_prob]])
    gof = pooled_chi_square(observed, exact)
    return CheckOutcome(
        case=case.name,
        engine_label=case.engine_label,
        check="absorption_time",
        horizon=horizon,
        gof=gof,
        alpha=alpha,
        passed=gof.passed(alpha),
    )


def _check_scenario_noop_case(
    case: ConformanceCase, horizon: int, seed, alpha: float
) -> CheckOutcome:
    """Gate the no-op-scenario bit-equality contract at one coordinate.

    The check is exact, not statistical: a pristine pass is reported as
    ``p = 1`` and any difference as pure impossible mass, so it composes
    with the Bonferroni accounting without consuming real alpha.
    """
    from . import scenario as scenario_mod

    diffs = scenario_mod.run_noop_equality(
        dict(case.spec_config),
        horizon,
        seed,
        kernel=case.kernel,
        n_threads=case.n_threads,
        fused=case.fused,
        n_workers=case.n_workers,
    )
    n = int(dict(case.spec_config).get("n_replicas", 0))
    gof = (
        GofResult(0.0, 0, 1.0, n, 1, 0.0, 0.0)
        if not diffs
        else GofResult(float("inf"), 0, 0.0, n, 1, 1.0, 1.0)
    )
    return CheckOutcome(
        case=case.name,
        engine_label=case.engine_label,
        check="noop_bit_equality",
        horizon=horizon,
        gof=gof,
        alpha=alpha,
        passed=not diffs,
    )


# ----------------------------------------------------------------------
def _gates_for_run(
    case: ConformanceCase,
    truth: _GroundTruth,
    samples: _RunSamples,
    horizon: int,
    alpha: float,
) -> List[CheckOutcome]:
    mu0 = one_hot_distribution(truth.states, truth.initial)
    mu_t = distribution_after(
        truth.P, mu0, horizon, fault_rounds=truth.fault_rounds, F=truth.F
    )
    outcomes: List[CheckOutcome] = []

    def gate(check: str, gof: GofResult) -> None:
        outcomes.append(
            CheckOutcome(
                case=case.name,
                engine_label=case.engine_label,
                check=check,
                horizon=horizon,
                gof=gof,
                alpha=alpha,
                passed=gof.passed(alpha),
            )
        )

    if "state" in case.checks:
        counts, off_support = _config_counts(samples.final_loads, truth.states)
        n_total = counts.sum() + off_support
        if off_support:
            # a configuration outside the chain's state space means ball
            # conservation itself broke — report as pure impossible mass
            gate(
                "state",
                GofResult(
                    statistic=float("inf"),
                    df=0,
                    p_value=0.0,
                    n_samples=int(n_total),
                    n_cells=len(truth.states),
                    tv_distance=1.0,
                    impossible_mass=off_support / n_total,
                ),
            )
        else:
            gate("state", pooled_chi_square(counts, mu_t / mu_t.sum()))
    if "max_load" in case.checks:
        values, probs = max_load_pmf(truth.states, mu_t)
        finals_max = np.asarray(samples.final_loads).max(axis=1)
        gate("max_load", pooled_chi_square(*_value_counts(finals_max, values, probs)))
    if "empty_bins" in case.checks:
        values, probs = empty_bins_pmf(truth.states, mu_t)
        finals_empty = (np.asarray(samples.final_loads) == 0).sum(axis=1)
        gate(
            "empty_bins",
            pooled_chi_square(*_value_counts(finals_empty, values, probs)),
        )
    if "window_max" in case.checks:
        values, probs = window_max_pmf(
            truth.P,
            truth.states,
            truth.initial,
            horizon,
            fault_rounds=truth.fault_rounds,
            F=truth.F,
            seed_from_initial=samples.seed_window_from_initial,
        )
        gate(
            "window_max",
            pooled_chi_square(*_value_counts(samples.window_max, values, probs)),
        )
        tracker = samples.extra.get("tracker_window_max")
        if tracker is not None and not np.array_equal(
            np.asarray(tracker), np.asarray(samples.window_max)
        ):
            gate(
                "tracker_window_max",
                GofResult(float("inf"), 0, 0.0, len(tracker), 1, 1.0, 1.0),
            )
    if "window_min_empty" in case.checks:
        values, probs = window_min_empty_pmf(
            truth.P,
            truth.states,
            truth.initial,
            horizon,
            fault_rounds=truth.fault_rounds,
            F=truth.F,
            seed_from_initial=bool(samples.seed_window_from_initial),
        )
        gate(
            "window_min_empty",
            pooled_chi_square(
                *_value_counts(samples.window_min_empty, values, probs)
            ),
        )
        tracker = samples.extra.get("tracker_window_min")
        if tracker is not None and not np.array_equal(
            np.asarray(tracker), np.asarray(samples.window_min_empty)
        ):
            gate(
                "tracker_window_min",
                GofResult(float("inf"), 0, 0.0, len(tracker), 1, 1.0, 1.0),
            )
    return outcomes


def _count_checks(case: ConformanceCase) -> int:
    if case.runner == "absorbing":
        return len(case.horizons)
    return len(case.horizons) * len(case.checks)


def run_case(
    case: ConformanceCase,
    seed,
    alpha: float,
    artifacts_dir: Optional[str] = None,
) -> List[CheckOutcome]:
    """Run one case at every horizon; returns its gate outcomes.

    ``seed`` is the case-level :class:`~numpy.random.SeedSequence`; each
    horizon derives its run seed via ``trial_seed(seed, horizon_index)``.
    """
    case_seed = as_seed_sequence(seed)
    outcomes: List[CheckOutcome] = []
    for h_index, horizon in enumerate(case.horizons):
        run_seed = trial_seed(case_seed, h_index)
        if case.runner == "absorbing":
            outcomes.append(_check_absorbing_case(case, run_seed, alpha))
            continue
        if case.runner == "scenario_noop":
            outcomes.append(
                _check_scenario_noop_case(case, horizon, run_seed, alpha)
            )
            continue
        if case.runner == "token":
            spec_config = dict(case.spec_config)
            spec = EnsembleSpec(**{**spec_config, "rounds": horizon})
            samples = _run_token_case(case, spec_config, horizon, run_seed)
        else:
            spec = EnsembleSpec(**{**dict(case.spec_config), "rounds": horizon})
            samples = _run_ensemble_case(case, spec, run_seed)
        truth = _ground_truth(spec, horizon)
        outcomes.extend(_gates_for_run(case, truth, samples, horizon, alpha))
    if artifacts_dir is not None:
        outcomes = [
            _attach_artifact(case, outcome, case_seed, artifacts_dir)
            if not outcome.passed
            else outcome
            for outcome in outcomes
        ]
    return outcomes


def _attach_artifact(
    case: ConformanceCase,
    outcome: CheckOutcome,
    case_seed,
    artifacts_dir: str,
) -> CheckOutcome:
    seed_seq = as_seed_sequence(case_seed)
    artifact = CounterexampleArtifact(
        kind="conformance",
        case=case.name,
        check=f"{outcome.check}@t={outcome.horizon}",
        seed_entropy=int(seed_seq.entropy),
        seed_spawn_key=[int(k) for k in seed_seq.spawn_key],
        spec=dict(case.spec_config),
        engine={
            "engine": ENGINE,
            "kernel": case.kernel,
            "n_threads": case.n_threads,
            "fused": case.fused,
            "n_workers": case.n_workers,
            "runner": case.runner,
        },
        violation={
            "statistic": outcome.gof.statistic,
            "df": outcome.gof.df,
            "p_value": outcome.gof.p_value,
            "tv_distance": outcome.gof.tv_distance,
            "impossible_mass": outcome.gof.impossible_mass,
            "alpha": outcome.alpha,
            "n_samples": outcome.gof.n_samples,
        },
    )
    path = write_artifact(artifact, artifacts_dir)
    return CheckOutcome(
        case=outcome.case,
        engine_label=outcome.engine_label,
        check=outcome.check,
        horizon=outcome.horizon,
        gof=outcome.gof,
        alpha=outcome.alpha,
        passed=outcome.passed,
        artifact_path=path,
    )


def run_conformance(
    level: str = "smoke",
    seed: SeedLike = 0,
    only: Optional[str] = None,
    artifacts_dir: Optional[str] = None,
    alpha_total: float = DEFAULT_ALPHA_TOTAL,
    cases: Optional[Sequence[ConformanceCase]] = None,
) -> ConformanceReport:
    """Run the conformance catalog at one level.

    ``only`` filters cases by substring (after counting checks for the
    Bonferroni correction, so a filtered run keeps the full-run
    thresholds).  ``cases`` overrides the catalog entirely (tests use
    this to gate a deliberately broken engine).
    """
    start_time = time.monotonic()
    root = as_seed_sequence(seed)
    catalog = list(cases) if cases is not None else build_cases(level)
    n_checks = sum(_count_checks(case) for case in catalog)
    alpha = bonferroni_alpha(alpha_total, max(n_checks, 1))
    report = ConformanceReport(
        level=level,
        seed_entropy=int(root.entropy),
        alpha_total=alpha_total,
        alpha_per_test=alpha,
    )
    native_ok = {
        "rbb": native_kernel_available("rbb"),
        "walks": native_kernel_available("walks"),
    }
    for case_index, case in enumerate(catalog):
        if only is not None and only not in case.name:
            continue
        if case.needs_native:
            which = (
                "walks"
                if dict(case.spec_config).get("process") == "graph_walks"
                else "rbb"
            )
            if not native_ok[which]:
                report.skipped.append(
                    (case.name, f"native {which} kernel unavailable")
                )
                continue
        case_seed = trial_seed(root, case_index)
        report.outcomes.extend(
            run_case(case, case_seed, alpha, artifacts_dir=artifacts_dir)
        )
    report.elapsed_seconds = time.monotonic() - start_time
    return report


def replay_artifact(path: str) -> ConformanceReport:
    """Re-run exactly the failing check recorded in an artifact."""
    from .artifact import load_artifact
    from .cases import case_by_name
    from . import trace as trace_mod

    artifact = load_artifact(path)
    check_engine(artifact.engine.get("engine", ENGINE))
    if artifact.kind == "invariant":
        return trace_mod.replay_invariant_artifact(artifact)
    try:
        case = case_by_name(artifact.case, level="full")
    except ReproError:
        case = case_by_name(artifact.case, level="smoke")
    outcomes = run_case(
        case,
        artifact.seed_sequence(),
        alpha=float(artifact.violation.get("alpha", 1e-6)),
    )
    report = ConformanceReport(
        level="replay",
        seed_entropy=artifact.seed_entropy,
        alpha_total=float(artifact.violation.get("alpha", 1e-6)),
        alpha_per_test=float(artifact.violation.get("alpha", 1e-6)),
        outcomes=outcomes,
    )
    return report
