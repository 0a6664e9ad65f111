"""Core processes of the paper.

This package implements the repeated balls-into-bins process (the paper's
subject), the batched ensemble engine that simulates R replicas of it as a
single vectorized ``(R, n)`` state (with an optional compiled native
kernel), the auxiliary Tetris process used in its analysis, the coupling
between the two (Lemma 3), and the identity-tracking token-level variant
used for traversal/cover-time experiments (Section 4).  The metric/observer
machinery they all share lives in :mod:`repro.metrics`.
"""

from .batched import (
    BatchedLoadProcess,
    BatchedProcess,
    BatchedRepeatedBallsIntoBins,
    EnsembleResult,
    make_ensemble_initial,
)
from .config import LoadConfiguration, legitimacy_threshold
from .coupling import CoupledRun, CouplingResult
from .native import native_available, native_status
from .process import RepeatedBallsIntoBins, SimulationResult
from .queueing import (
    FIFODiscipline,
    LIFODiscipline,
    QueueDiscipline,
    RandomDiscipline,
    SmallestIDDiscipline,
    get_discipline,
)
from .tetris import ProbabilisticTetris, TetrisProcess
from .token_process import TokenProcessResult, TokenRepeatedBallsIntoBins

__all__ = [
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
    "native_status",
    "TetrisProcess",
    "ProbabilisticTetris",
    "CoupledRun",
    "CouplingResult",
    "TokenRepeatedBallsIntoBins",
    "TokenProcessResult",
    "QueueDiscipline",
    "FIFODiscipline",
    "LIFODiscipline",
    "RandomDiscipline",
    "SmallestIDDiscipline",
    "get_discipline",
]
