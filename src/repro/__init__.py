"""repro — a reproduction of *Self-stabilizing repeated balls-into-bins*.

The library implements the repeated balls-into-bins process of Becchetti,
Clementi, Natale, Pasquale and Posta (SPAA 2015 / Distributed Computing
2019), every auxiliary process its analysis relies on (the Tetris process,
the Lemma 3 coupling, the Lemma 5 absorbing chain), the multi-token
traversal protocol of Section 4, the adversarial fault model of Section 4.1,
the baselines it is compared against, and an experiment harness that
empirically reproduces each theorem/lemma/corollary as a table (see
:mod:`repro.experiments.registry` and docs/EXPERIMENTS.md).

Quickstart
----------
>>> from repro import RepeatedBallsIntoBins, LoadConfiguration
>>> process = RepeatedBallsIntoBins(1024, initial=LoadConfiguration.all_in_one(1024), seed=0)
>>> hit = process.run_until_legitimate(max_rounds=20 * 1024)
>>> hit is not None and hit <= 20 * 1024
True

Every public name is imported on first access (PEP 562), so ``import repro``
loads no simulator, experiment or third-party module until a name is used.
"""

from importlib import import_module

__version__ = "1.0.0"

#: The submodule that defines each public name, imported on first access.
_EXPORTS = {
    name: module
    for module, names in {
        "core": (
            "LoadConfiguration", "legitimacy_threshold", "RepeatedBallsIntoBins",
            "SimulationResult", "BatchedProcess", "BatchedLoadProcess",
            "BatchedRepeatedBallsIntoBins", "EnsembleResult", "make_ensemble_initial",
            "native_available", "TetrisProcess", "ProbabilisticTetris", "CoupledRun",
            "CouplingResult", "TokenRepeatedBallsIntoBins",
        ),
        "metrics": (
            "METRIC_NAMES", "MetricPayload", "BatchedObserverList",
            "BatchedMaxLoadTracker", "BatchedEmptyBinsTracker",
            "BatchedLegitimacyTracker", "BatchedLoadHistogramTracker",
            "BatchedTraceRecorder", "BatchedBinEmptyingTracker",
        ),
        "markov": ("FiniteMarkovChain", "BinLoadChain", "absorption_tail_bound"),
        "graphs": (
            "Topology", "complete_graph", "cycle_graph", "parse_topology_spec",
            "resolve_topology", "ConstrainedParallelWalks", "BatchedConstrainedWalks",
        ),
        "traversal": ("MultiTokenTraversal", "SingleTokenWalk", "expected_single_cover_time"),
        "adversary": (
            "Adversary", "ConcentrateAdversary", "PyramidAdversary", "ShuffleAdversary",
            "FaultSchedule", "FaultyProcess", "BatchedFaultyProcess",
        ),
        "baselines": (
            "one_shot_max_load", "theoretical_one_shot_max_load", "DChoicesProcess",
            "BatchedDChoices", "batched_one_shot_d_choices_max_load",
            "IndependentThrowsProcess",
        ),
        "experiments": ("run_experiment", "available_experiments", "format_table"),
        "parallel": ("EnsembleSpec", "run_ensemble"),
        "scenarios": (
            "ScenarioSpec", "ScenarioEvent", "resolve_scenario", "get_scenario",
            "available_scenarios", "compile_scenario",
        ),
        "sweeps": ("SweepSpec", "expand_sweep", "run_sweep", "resume_sweep", "sweep_status"),
        "store": ("ResultStore", "PointTable", "StreamingMoments", "TailCounter"),
        "rng": ("as_generator", "spawn_generators"),
        "errors": (
            "ReproError", "ConfigurationError", "SimulationError", "CouplingError",
            "GraphError", "ScenarioError", "ExperimentError",
        ),
    }.items()
    for name in names
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
