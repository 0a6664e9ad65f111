"""repro — a reproduction of *Self-stabilizing repeated balls-into-bins*.

The library implements the repeated balls-into-bins process of Becchetti,
Clementi, Natale, Pasquale and Posta (SPAA 2015 / Distributed Computing
2019), every auxiliary process its analysis relies on (the Tetris process,
the Lemma 3 coupling, the Lemma 5 absorbing chain), the multi-token
traversal protocol of Section 4, the adversarial fault model of Section 4.1,
the baselines it is compared against, and an experiment harness that
empirically reproduces each theorem/lemma/corollary as a table (see
DESIGN.md and EXPERIMENTS.md).

Quickstart
----------
>>> from repro import RepeatedBallsIntoBins, LoadConfiguration
>>> process = RepeatedBallsIntoBins(1024, initial=LoadConfiguration.all_in_one(1024), seed=0)
>>> hit = process.run_until_legitimate(max_rounds=20 * 1024)
>>> hit is not None and hit <= 20 * 1024
True
"""

from .adversary import (
    Adversary,
    BatchedFaultyProcess,
    ConcentrateAdversary,
    FaultSchedule,
    FaultyProcess,
    PyramidAdversary,
    ShuffleAdversary,
)
from .baselines import (
    BatchedDChoices,
    DChoicesProcess,
    IndependentThrowsProcess,
    batched_one_shot_d_choices_max_load,
    one_shot_max_load,
    theoretical_one_shot_max_load,
)
from .core import (
    BatchedLoadProcess,
    BatchedProcess,
    BatchedRepeatedBallsIntoBins,
    CoupledRun,
    CouplingResult,
    EnsembleResult,
    LoadConfiguration,
    ProbabilisticTetris,
    RepeatedBallsIntoBins,
    SimulationResult,
    TetrisProcess,
    TokenRepeatedBallsIntoBins,
    legitimacy_threshold,
    make_ensemble_initial,
    native_available,
)
from .errors import (
    ConfigurationError,
    CouplingError,
    ExperimentError,
    GraphError,
    ReproError,
    ScenarioError,
    SimulationError,
)
from .experiments import available_experiments, format_table, run_experiment
from .graphs import (
    BatchedConstrainedWalks,
    ConstrainedParallelWalks,
    Topology,
    complete_graph,
    cycle_graph,
    parse_topology_spec,
    resolve_topology,
)
from .markov import BinLoadChain, FiniteMarkovChain, absorption_tail_bound
from .metrics import (
    METRIC_NAMES,
    BatchedBinEmptyingTracker,
    BatchedEmptyBinsTracker,
    BatchedLegitimacyTracker,
    BatchedLoadHistogramTracker,
    BatchedMaxLoadTracker,
    BatchedObserverList,
    BatchedTraceRecorder,
    MetricPayload,
)
from .parallel import EnsembleSpec, run_ensemble
from .rng import as_generator, spawn_generators
from .scenarios import (
    ScenarioEvent,
    ScenarioSpec,
    available_scenarios,
    compile_scenario,
    get_scenario,
    resolve_scenario,
)
from .store import PointTable, ResultStore, StreamingMoments, TailCounter
from .sweeps import (
    SweepSpec,
    expand_sweep,
    resume_sweep,
    run_sweep,
    sweep_status,
)
from .traversal import MultiTokenTraversal, SingleTokenWalk, expected_single_cover_time

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "LoadConfiguration",
    "legitimacy_threshold",
    "RepeatedBallsIntoBins",
    "SimulationResult",
    "BatchedProcess",
    "BatchedLoadProcess",
    "BatchedRepeatedBallsIntoBins",
    "EnsembleResult",
    "make_ensemble_initial",
    "native_available",
    "TetrisProcess",
    "ProbabilisticTetris",
    "CoupledRun",
    "CouplingResult",
    "TokenRepeatedBallsIntoBins",
    # metrics (unified observation layer)
    "METRIC_NAMES",
    "MetricPayload",
    "BatchedObserverList",
    "BatchedMaxLoadTracker",
    "BatchedEmptyBinsTracker",
    "BatchedLegitimacyTracker",
    "BatchedLoadHistogramTracker",
    "BatchedTraceRecorder",
    "BatchedBinEmptyingTracker",
    # markov
    "FiniteMarkovChain",
    "BinLoadChain",
    "absorption_tail_bound",
    # graphs
    "Topology",
    "complete_graph",
    "cycle_graph",
    "parse_topology_spec",
    "resolve_topology",
    "ConstrainedParallelWalks",
    "BatchedConstrainedWalks",
    # traversal
    "MultiTokenTraversal",
    "SingleTokenWalk",
    "expected_single_cover_time",
    # adversary
    "Adversary",
    "ConcentrateAdversary",
    "PyramidAdversary",
    "ShuffleAdversary",
    "FaultSchedule",
    "FaultyProcess",
    "BatchedFaultyProcess",
    # baselines
    "one_shot_max_load",
    "theoretical_one_shot_max_load",
    "DChoicesProcess",
    "BatchedDChoices",
    "batched_one_shot_d_choices_max_load",
    "IndependentThrowsProcess",
    # experiments
    "run_experiment",
    "available_experiments",
    "format_table",
    # parallel
    "EnsembleSpec",
    "run_ensemble",
    # scenarios
    "ScenarioSpec",
    "ScenarioEvent",
    "resolve_scenario",
    "get_scenario",
    "available_scenarios",
    "compile_scenario",
    # sweeps + store
    "SweepSpec",
    "expand_sweep",
    "run_sweep",
    "resume_sweep",
    "sweep_status",
    "ResultStore",
    "PointTable",
    "StreamingMoments",
    "TailCounter",
    # rng
    "as_generator",
    "spawn_generators",
    # errors
    "ReproError",
    "ConfigurationError",
    "SimulationError",
    "CouplingError",
    "GraphError",
    "ScenarioError",
    "ExperimentError",
]
