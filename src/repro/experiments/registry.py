"""Registry of every experiment (E1–E17) and ablation (A1–A3).

Each entry pairs an :class:`~repro.experiments.spec.ExperimentSpec` (claim,
default parameters, expected shape) with a runner function.  Default
parameters are sized so that a full default run of any single experiment
finishes in seconds on a laptop; ``tests/test_paper_shapes.py`` asserts the
shape of each table at a comparable scale, and ``repro report`` runs the
larger report scale listed in ``docs/EXPERIMENTS.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from . import definitions_core as core_defs
from . import definitions_extended as ext_defs
from . import definitions_scenarios as scenario_defs
from .spec import ExperimentResult, ExperimentSpec
from ..errors import ExperimentError

__all__ = ["RegisteredExperiment", "REGISTRY", "register", "get", "all_ids"]

Runner = Callable[[ExperimentSpec, dict, object], ExperimentResult]


@dataclass(frozen=True)
class RegisteredExperiment:
    """A spec together with the function that runs it."""

    spec: ExperimentSpec
    runner: Runner


REGISTRY: Dict[str, RegisteredExperiment] = {}


def register(spec: ExperimentSpec, runner: Runner) -> None:
    """Add an experiment to the registry (ids must be unique)."""
    key = spec.experiment_id.upper()
    if key in REGISTRY:
        raise ExperimentError(f"experiment id {key!r} registered twice")
    REGISTRY[key] = RegisteredExperiment(spec=spec, runner=runner)


def get(experiment_id: str) -> RegisteredExperiment:
    """Look up an experiment by id (case-insensitive)."""
    key = experiment_id.upper()
    if key not in REGISTRY:
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; available: {', '.join(all_ids())}"
        )
    return REGISTRY[key]


def all_ids() -> List[str]:
    """All registered experiment ids, E-experiments first."""
    return sorted(REGISTRY, key=lambda k: (k[0] != "E", k[0], int(k[1:]) if k[1:].isdigit() else 0))


# ----------------------------------------------------------------------
# Registrations
# ----------------------------------------------------------------------
register(
    ExperimentSpec(
        experiment_id="E1",
        title="Stability: max load stays O(log n) over a long window",
        claim="Theorem 1 (first part)",
        default_params={
            "sizes": [64, 128, 256, 512, 1024],
            "trials": 10,
            "rounds_factor": 4.0,
            "n_workers": 0,
        },
        expected_shape="window max load grows ~ c*log n with c in [1, 4]; flat in the window length",
    ),
    core_defs.run_e1_stability,
)

register(
    ExperimentSpec(
        experiment_id="E2",
        title="Convergence: legitimate configuration within O(n) rounds from any start",
        claim="Theorem 1 (second part)",
        default_params={
            "sizes": [64, 128, 256, 512, 1024],
            "trials": 10,
            "budget_factor": 20.0,
            "n_workers": 0,
        },
        expected_shape="convergence time from the all-in-one start fits a power law with exponent ~1",
    ),
    core_defs.run_e2_convergence,
)

register(
    ExperimentSpec(
        experiment_id="E3",
        title="Empty bins: at least n/4 bins empty in every round after the first",
        claim="Lemmas 1-2",
        default_params={
            "sizes": [64, 256, 1024],
            "trials": 10,
            "rounds_factor": 4.0,
            "observe_every": 4,
        },
        expected_shape="worst per-trial empty fraction stays above 0.25",
    ),
    core_defs.run_e3_empty_bins,
)

register(
    ExperimentSpec(
        experiment_id="E4",
        title="Coupling: Tetris dominates the original process",
        claim="Lemma 3",
        default_params={
            "sizes": [64, 256, 1024],
            "trials": 10,
            "rounds_factor": 2.0,
        },
        expected_shape="bin-wise domination holds in (essentially) every trial; no case-(ii) rounds",
    ),
    core_defs.run_e4_coupling,
)

register(
    ExperimentSpec(
        experiment_id="E5",
        title="Tetris emptying: every bin empties within 5n rounds from any start",
        claim="Lemma 4",
        default_params={
            "sizes": [64, 256, 1024],
            "trials": 10,
        },
        expected_shape="all bins emptied well before 5n rounds (typically around n)",
    ),
    core_defs.run_e5_tetris_emptying,
)

register(
    ExperimentSpec(
        experiment_id="E6",
        title="Absorption tail of the Lemma 5 bin-load chain",
        claim="Lemma 5",
        default_params={
            "n": 1024,
            "starts": [1, 4, 8, 16],
            "horizon_factor": 4.0,
            "mc_trials": 400,
        },
        expected_shape="exact survival falls below exp(-t/144) for every t >= 8k",
    ),
    core_defs.run_e6_absorption,
)

register(
    ExperimentSpec(
        experiment_id="E7",
        title="Tetris max load O(log n) over a long window",
        claim="Lemma 6",
        default_params={
            "sizes": [64, 128, 256, 512, 1024],
            "trials": 10,
            "rounds_factor": 4.0,
        },
        expected_shape="window max load grows ~ c*log n",
    ),
    core_defs.run_e7_tetris_load,
)

register(
    ExperimentSpec(
        experiment_id="E8",
        title="Parallel cover time O(n log^2 n) vs single-token Theta(n log n)",
        claim="Corollary 1",
        default_params={
            "sizes": [16, 32, 64, 128],
            "trials": 5,
            "budget_factor": 40.0,
            "n_workers": 0,
        },
        expected_shape="multi-token cover / (n log n) grows ~ log n; slowdown vs single token is logarithmic",
    ),
    ext_defs.run_e8_cover_time,
)

register(
    ExperimentSpec(
        experiment_id="E9",
        title="Adversarial faults every gamma*n rounds are absorbed",
        claim="Section 4.1",
        default_params={
            "n": 256,
            "gammas": [2.0, 6.0, 12.0, None],
            "trials": 5,
            "rounds_factor": 30.0,
            "adversary": "concentrate",
        },
        expected_shape="recovery takes O(n) rounds, a small fraction of the fault period for gamma >= 6",
    ),
    ext_defs.run_e9_adversarial,
)

register(
    ExperimentSpec(
        experiment_id="E10",
        title="One-shot Theta(log n/log log n) vs repeated O(log n) max load",
        claim="Section 1.2 / Section 5 comparison",
        default_params={
            "sizes": [64, 256, 1024, 4096],
            "trials": 10,
            "window_factor": 1.0,
        },
        expected_shape="one-shot max tracks log n/log log n; repeated window max tracks log n (larger)",
    ),
    ext_defs.run_e10_one_shot,
)

register(
    ExperimentSpec(
        experiment_id="E11",
        title="Flat O(log n) max load vs the earlier O(sqrt(t)) envelope",
        claim="Improvement over [12]",
        default_params={
            "n": 256,
            "window_factors": [1, 4, 16, 64],
            "trials": 5,
        },
        expected_shape="repeated process stays ~log n as the window grows; zero-drift surrogate keeps growing",
    ),
    ext_defs.run_e11_sqrt_t,
)

register(
    ExperimentSpec(
        experiment_id="E12",
        title="Open question: m balls in n bins",
        claim="Section 5 (m != n)",
        default_params={
            "n": 256,
            "ratios": [0.5, 1.0, 2.0, 4.0],
            "trials": 5,
            "rounds_factor": 4.0,
        },
        expected_shape="stability persists for m <= n; excess load grows with m/n beyond m = n",
    ),
    ext_defs.run_e12_m_balls,
)

register(
    ExperimentSpec(
        experiment_id="E13",
        title="Open question: general graph topologies",
        claim="Section 5 (general graphs)",
        default_params={
            "n": 256,
            "topologies": ["complete", "hypercube", "random_regular", "torus", "cycle"],
            "trials": 3,
            "rounds_factor": 4.0,
        },
        expected_shape="clique/hypercube/random-regular stay near log n; ring and torus accumulate more",
    ),
    ext_defs.run_e13_graphs,
)

register(
    ExperimentSpec(
        experiment_id="E14",
        title="Appendix B: arrival counts are not negatively associated",
        claim="Appendix B",
        default_params={
            "mc_sizes": [2, 4, 8],
            "mc_trials": 4000,
        },
        expected_shape="exact n=2 gap is 1/8 - 3/32 = 1/32 > 0; Monte-Carlo gaps stay positive",
    ),
    ext_defs.run_e14_negative_association,
)

register(
    ExperimentSpec(
        experiment_id="E15",
        title="Leaky bins: probabilistic Tetris with Binomial(n, lambda) arrivals",
        claim="[18] extension discussed in related work",
        default_params={
            "n": 256,
            "lams": [0.5, 0.75, 0.9, 0.99],
            "trials": 5,
            "rounds_factor": 8.0,
        },
        expected_shape="stable (logarithmic max load) for lambda away from 1; blows up as lambda -> 1",
    ),
    ext_defs.run_e15_leaky_bins,
)

register(
    ExperimentSpec(
        experiment_id="E16",
        title="Graph-walk ensembles: trajectories across topologies at scale",
        claim="Section 5 (general graphs), ensemble scale",
        default_params={
            "topologies": [
                "complete:256",
                "hypercube:8",
                "random_regular:256:4",
                "torus:16x16",
                "cycle:256",
                "star:256",
            ],
            "trials": 4,
            "rounds_factor": 2.0,
            "observe_every": 8,
        },
        expected_shape=(
            "expanding topologies stay near log n; ring/torus accumulate more; "
            "the star is hub-dominated with ~all other nodes empty"
        ),
    ),
    ext_defs.run_e16_graph_ensembles,
)

register(scenario_defs.E17_SPEC, scenario_defs.run_e17_scenarios)

register(
    ExperimentSpec(
        experiment_id="A1",
        title="Ablation: queueing discipline (FIFO / LIFO / random / smallest-id)",
        claim="Theorem 1 is oblivious to the queueing strategy",
        default_params={
            "n": 128,
            "disciplines": ["fifo", "lifo", "random", "smallest_id"],
            "trials": 5,
            "rounds_factor": 4.0,
        },
        expected_shape="load statistics coincide across disciplines; per-ball progress differs",
    ),
    ext_defs.run_a1_queueing,
)

register(
    ExperimentSpec(
        experiment_id="A2",
        title="Ablation: power of d choices — Greedy[d] vs the plain repeated process",
        claim="Related work [36] / Azar et al.; even d = 1 achieves O(log n)",
        default_params={
            "sizes": [64, 128, 256],
            "d_values": [1, 2, 4],
            "trials": 8,
            "rounds_factor": 1.0,
        },
        expected_shape="window max decreases only additively with d; every d stays ~log n",
    ),
    ext_defs.run_a2_d_choices,
)

register(
    ExperimentSpec(
        experiment_id="A3",
        title="Ablation: Tetris arrival rate rho*n",
        claim="The 3/4 constant gives strictly negative drift",
        default_params={
            "n": 256,
            "rhos": [0.5, 0.75, 0.9, 1.0],
            "trials": 5,
            "rounds_factor": 8.0,
        },
        expected_shape="max load stays logarithmic for rho < 1 and grows with the window at rho = 1",
    ),
    ext_defs.run_a3_arrival_rate,
)
