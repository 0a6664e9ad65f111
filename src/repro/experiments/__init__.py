"""Experiment harness.

Every quantitative claim of the paper is registered here as an experiment
(``E1`` ... ``E17`` plus ablations ``A1`` ... ``A3``, see
:mod:`~repro.experiments.registry` and ``docs/EXPERIMENTS.md``).  An
experiment is a pure function from parameters + seed to a table of rows; the
harness adds parameter handling, the CLI exposes it, and
``tests/test_paper_shapes.py`` regenerates each experiment at a reduced
scale and asserts the shape of its table.
"""

from .harness import available_experiments, get_experiment, run_experiment
from .io import load_result_json, save_result_csv, save_result_json
from .spec import ExperimentResult, ExperimentSpec
from .tables import format_table, rows_to_csv

__all__ = [
    "ExperimentSpec",
    "ExperimentResult",
    "run_experiment",
    "get_experiment",
    "available_experiments",
    "format_table",
    "rows_to_csv",
    "save_result_json",
    "save_result_csv",
    "load_result_json",
]
