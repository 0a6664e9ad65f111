"""Experiments E1–E7: the load-level claims (Theorem 1, Lemmas 1–6).

Every function in this module has the registry runner signature
``runner(spec, params, seed) -> ExperimentResult``.  The pure load-vector
ensembles (E1 stability, E2 convergence, E3 empty bins) are expressed as
:class:`~repro.parallel.ensemble.EnsembleSpec` and routed through
:func:`~repro.parallel.ensemble.run_ensemble`, the batched ``(R, n)``
ensemble engine; the Tetris experiments (E5, E7) run each size's trials
as the replicas of one :class:`~repro.core.tetris.BatchedTetris`.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Optional

import numpy as np

from .spec import ExperimentResult, ExperimentSpec
from ..analysis.bounds import empty_bins_lower_bound, tetris_emptying_bound
from ..analysis.fitting import fit_log_growth, fit_power_law
from ..analysis.statistics import empirical_whp_probability, summarize_trials
from ..core.config import DEFAULT_BETA, LoadConfiguration, legitimacy_threshold
from ..core.coupling import CoupledRun
from ..errors import ConfigurationError
from ..core.tetris import BatchedTetris
from ..markov.absorbing import BinLoadChain, absorption_tail_bound
from ..parallel.ensemble import EnsembleSpec, run_ensemble
from ..parallel.seeding import trial_seeds
from ..rng import as_generator

__all__ = [
    "run_e1_stability",
    "run_e2_convergence",
    "run_e3_empty_bins",
    "run_e4_coupling",
    "run_e5_tetris_emptying",
    "run_e6_absorption",
    "run_e7_tetris_load",
]


def _ensemble_threads(n_workers: Optional[int]) -> Optional[int]:
    """The ``n_threads`` an ensemble experiment's ``n_workers`` asks for.

    An ensemble runs in parallel on the native kernel's threads, never on
    a process pool, so ``n_workers`` above 1 becomes the thread count and
    0 or 1 keep the default.  Neither changes a result.
    """
    if n_workers is not None and n_workers < 0:
        raise ConfigurationError(f"n_workers must be >= 0, got {n_workers}")
    return n_workers if n_workers and n_workers > 1 else None


# ----------------------------------------------------------------------
# E1 — stability: max load O(log n) over a long window from a legitimate start
# ----------------------------------------------------------------------
def run_e1_stability(spec: ExperimentSpec, params: Dict[str, Any], seed) -> ExperimentResult:
    result = ExperimentResult(spec=spec, params=params)
    sizes = params["sizes"]
    trials = params["trials"]
    rounds_factor = params["rounds_factor"]
    n_threads = _ensemble_threads(params["n_workers"])

    window_maxima = []
    for n in sizes:
        rounds = int(rounds_factor * n)
        ensemble = run_ensemble(
            EnsembleSpec(
                n_bins=n, n_replicas=trials, rounds=rounds, start="random_uniform"
            ),
            seed=seed,
            n_threads=n_threads,
        )
        maxima = ensemble.max_load_seen.astype(float)
        stayed = int(np.count_nonzero(maxima <= legitimacy_threshold(n, DEFAULT_BETA)))
        summary = summarize_trials(maxima)
        p_hat, p_low, _ = empirical_whp_probability(stayed, trials)
        window_maxima.append(summary.mean)
        result.add_row(
            n=n,
            rounds=rounds,
            trials=trials,
            mean_window_max=summary.mean,
            max_window_max=summary.maximum,
            window_max_over_log_n=summary.mean / max(math.log(n), 1.0),
            legitimate_fraction=p_hat,
            legitimate_fraction_ci_low=p_low,
        )

    if len(sizes) >= 3:
        fit = fit_log_growth(sizes, window_maxima)
        result.add_note(
            f"window max load ~ {fit.params['coefficient']:.2f} * log n + "
            f"{fit.params['intercept']:.2f} (R^2 = {fit.r_squared:.3f}); "
            "Theorem 1 predicts Theta(log n)."
        )
    return result


# ----------------------------------------------------------------------
# E2 — convergence: legitimate configuration within O(n) rounds from any start
# ----------------------------------------------------------------------
def run_e2_convergence(spec: ExperimentSpec, params: Dict[str, Any], seed) -> ExperimentResult:
    result = ExperimentResult(spec=spec, params=params)
    sizes = params["sizes"]
    trials = params["trials"]
    budget_factor = params["budget_factor"]
    n_threads = _ensemble_threads(params["n_workers"])

    mean_times = []
    for n in sizes:
        max_rounds = int(budget_factor * n)
        ensemble = run_ensemble(
            EnsembleSpec(
                n_bins=n,
                n_replicas=trials,
                rounds=max_rounds,
                start="all_in_one",
                stop_when_legitimate=True,
            ),
            seed=seed,
            n_threads=n_threads,
        )
        times = ensemble.first_legitimate_round.astype(float)
        converged = int(np.count_nonzero(times >= 0))
        usable = times[times >= 0]
        summary = summarize_trials(usable) if usable.size else None
        mean_time = summary.mean if summary else float("nan")
        mean_times.append(mean_time)
        result.add_row(
            n=n,
            trials=trials,
            converged_fraction=converged / trials,
            mean_convergence_rounds=mean_time,
            max_convergence_rounds=summary.maximum if summary else None,
            convergence_over_n=mean_time / n if summary else None,
        )

    finite = [(n, t) for n, t in zip(sizes, mean_times) if np.isfinite(t)]
    if len(finite) >= 3:
        xs, ys = zip(*finite)
        fit = fit_power_law(xs, ys)
        result.add_note(
            f"convergence time ~ n^{fit.params['exponent']:.2f} "
            f"(R^2 = {fit.r_squared:.3f}); Theorem 1 predicts exponent 1 (linear in n)."
        )
    return result


# ----------------------------------------------------------------------
# E3 — empty bins: at least n/4 bins empty in every round after the first
# ----------------------------------------------------------------------
def run_e3_empty_bins(spec: ExperimentSpec, params: Dict[str, Any], seed) -> ExperimentResult:
    result = ExperimentResult(spec=spec, params=params)
    sizes = params["sizes"]
    trials = params["trials"]
    rounds_factor = params["rounds_factor"]
    # observation cadence for the empty-bins series: min_empty (the Lemma 2
    # event) stays exact at any stride, so the default thins the
    # auxiliary mean_empty_fraction series rather than segmenting the
    # native kernel every round; -p observe_every=1 makes the mean exactly
    # per-round
    observe_every = int(params.get("observe_every", 4))

    starts = ["balanced", "all_in_one"]
    seed_children = trial_seeds(seed, len(sizes) * len(starts))
    point = 0
    for n in sizes:
        rounds = max(int(rounds_factor * n), 2)
        for start_name in starts:
            # Lemma 2 only claims the bound after the first round, so the
            # first step is warm-up and the min is tracked over rounds - 1.
            ensemble = run_ensemble(
                EnsembleSpec(
                    n_bins=n,
                    n_replicas=trials,
                    rounds=rounds - 1,
                    start=start_name,
                    warmup_rounds=1,
                    # observe the empty-bin trajectory through the metrics
                    # layer, not just the window minimum
                    metrics="empty_bins",
                    observe_every=observe_every,
                ),
                seed=seed_children[point],
            )
            point += 1
            min_empty = ensemble.min_empty_bins_seen
            min_fractions = (min_empty / n).tolist()
            successes = int(np.count_nonzero(min_empty >= empty_bins_lower_bound(n)))
            summary = summarize_trials(min_fractions)
            p_hat, p_low, _ = empirical_whp_probability(successes, trials)
            series = ensemble.metrics["empty_bins"].series["empty_bins"]
            result.add_row(
                n=n,
                start=start_name,
                rounds=rounds,
                trials=trials,
                mean_min_empty_fraction=summary.mean,
                worst_min_empty_fraction=summary.minimum,
                mean_empty_fraction=float(series.mean() / n) if series.size else None,
                frac_trials_above_quarter=p_hat,
                frac_trials_above_quarter_ci_low=p_low,
            )
    result.add_note(
        "Lemma 2 predicts the empty-bin fraction stays >= 0.25 after round 1 w.h.p.; "
        "the worst observed fraction per row should sit above 0.25."
    )
    return result


# ----------------------------------------------------------------------
# E4 — coupling: Tetris dominates the original process
# ----------------------------------------------------------------------
def run_e4_coupling(spec: ExperimentSpec, params: Dict[str, Any], seed) -> ExperimentResult:
    result = ExperimentResult(spec=spec, params=params)
    sizes = params["sizes"]
    trials = params["trials"]
    rounds_factor = params["rounds_factor"]
    rng = as_generator(seed)

    for n in sizes:
        rounds = max(int(rounds_factor * n), 1)
        dominated = 0
        maxload_dominated = 0
        case_ii_total = 0
        original_maxima = []
        tetris_maxima = []
        for _ in range(trials):
            initial = LoadConfiguration.random_uniform(n, seed=rng)
            coupled = CoupledRun(n, initial=initial, seed=rng, enforce_precondition=False)
            outcome = coupled.run(rounds)
            dominated += int(outcome.domination_held)
            maxload_dominated += int(outcome.max_load_dominated)
            case_ii_total += len(outcome.case_ii_rounds)
            original_maxima.append(outcome.original_max_load)
            tetris_maxima.append(outcome.tetris_max_load)
        result.add_row(
            n=n,
            rounds=rounds,
            trials=trials,
            binwise_domination_fraction=dominated / trials,
            maxload_domination_fraction=maxload_dominated / trials,
            mean_original_max=float(np.mean(original_maxima)),
            mean_tetris_max=float(np.mean(tetris_maxima)),
            case_ii_rounds_total=case_ii_total,
        )
    result.add_note(
        "Lemma 3 predicts bin-wise domination whenever the >= n/4 empty-bin event holds; "
        "case-(ii) rounds (independent fallback) should be rare or absent."
    )
    return result


# ----------------------------------------------------------------------
# E5 — Tetris emptying: every bin empties within 5n rounds from any start
# ----------------------------------------------------------------------
def run_e5_tetris_emptying(spec: ExperimentSpec, params: Dict[str, Any], seed) -> ExperimentResult:
    result = ExperimentResult(spec=spec, params=params)
    sizes = params["sizes"]
    trials = params["trials"]
    rng = as_generator(seed)

    for n in sizes:
        bound = tetris_emptying_bound(n)
        tetris = BatchedTetris(
            n, trials, initial=LoadConfiguration.all_in_one(n), seed=rng
        )
        emptying = tetris.emptying_tracker()
        tetris.run(bound, observers=emptying)
        emptied_by = emptying.last_first_empty
        emptied_by = emptied_by[emptied_by >= 0]
        summary = summarize_trials(emptied_by) if emptied_by.size else None
        result.add_row(
            n=n,
            trials=trials,
            bound_5n=bound,
            within_bound_fraction=emptied_by.size / trials,
            mean_all_emptied_by=summary.mean if summary else None,
            max_all_emptied_by=summary.maximum if summary else None,
            emptied_by_over_n=(summary.mean / n) if summary else None,
        )
    result.add_note(
        "Lemma 4 predicts every bin empties at least once within 5n rounds w.h.p.; "
        "the measured 'all emptied by' round should be well below 5n (typically ~n)."
    )
    return result


# ----------------------------------------------------------------------
# E6 — absorption tail of the Lemma 5 chain
# ----------------------------------------------------------------------
def run_e6_absorption(spec: ExperimentSpec, params: Dict[str, Any], seed) -> ExperimentResult:
    result = ExperimentResult(spec=spec, params=params)
    n = params["n"]
    starts = params["starts"]
    horizon_factor = params["horizon_factor"]
    mc_trials = params["mc_trials"]
    rng = as_generator(seed)

    chain = BinLoadChain(n)
    for k in starts:
        horizon = max(int(horizon_factor * max(8 * k, 1)), 16)
        exact = chain.survival_probabilities(k, horizon)
        empirical = chain.empirical_survival(k, mc_trials, horizon, seed=rng)
        ts = np.arange(horizon + 1)
        valid = ts >= 8 * k
        bound = np.asarray([absorption_tail_bound(t, k) for t in ts])
        violations = int(np.count_nonzero(exact[valid] > bound[valid] + 1e-12))
        t_probe = int(min(horizon, max(8 * k, 16)))
        result.add_row(
            n=n,
            start_k=k,
            horizon=horizon,
            exact_survival_at_8k=float(exact[min(8 * k, horizon)]),
            bound_at_8k=float(absorption_tail_bound(8 * k, k)),
            exact_survival_at_probe=float(exact[t_probe]),
            empirical_survival_at_probe=float(empirical[t_probe]),
            expected_absorption_time=chain.expected_absorption_time(k),
            bound_violations=violations,
        )
    result.add_note(
        "Lemma 5 predicts P_k(tau > t) <= exp(-t/144) for t >= 8k; "
        "bound_violations counts grid points where the exact tail exceeds the envelope "
        "(expected to be 0)."
    )
    return result


# ----------------------------------------------------------------------
# E7 — Tetris max load O(log n) over a long window
# ----------------------------------------------------------------------
def run_e7_tetris_load(spec: ExperimentSpec, params: Dict[str, Any], seed) -> ExperimentResult:
    result = ExperimentResult(spec=spec, params=params)
    sizes = params["sizes"]
    trials = params["trials"]
    rounds_factor = params["rounds_factor"]
    rng = as_generator(seed)

    means = []
    for n in sizes:
        rounds = int(rounds_factor * n)
        summary = summarize_trials(
            BatchedTetris(n, trials, seed=rng).run(rounds).max_load_seen
        )
        means.append(summary.mean)
        result.add_row(
            n=n,
            rounds=rounds,
            trials=trials,
            mean_window_max=summary.mean,
            max_window_max=summary.maximum,
            window_max_over_log_n=summary.mean / max(math.log(n), 1.0),
        )
    if len(sizes) >= 3:
        fit = fit_log_growth(sizes, means)
        result.add_note(
            f"Tetris window max load ~ {fit.params['coefficient']:.2f} * log n + "
            f"{fit.params['intercept']:.2f} (R^2 = {fit.r_squared:.3f}); "
            "Lemma 6 predicts O(log n)."
        )
    return result
