"""Markdown report generation (EXPERIMENTS.md).

The report runs a selection of registered experiments and renders, for each
one, the paper claim, the expected shape, the measured table, and the
harness notes (fits, pass/fail of shape checks).  ``scripts/
generate_experiments_report.py`` uses this to regenerate EXPERIMENTS.md;
``tests/test_paper_shapes.py`` regenerates the same tables at a smaller scale
and asserts their shapes.
"""

from __future__ import annotations

import io
import time
from typing import Dict, Iterable, List, Optional

from . import registry
from .harness import run_experiment
from .spec import ExperimentResult
from .tables import format_table
from ..types import SeedLike

__all__ = ["generate_report", "report_scale_params", "run_report_experiments"]


#: Parameter overrides used for the "report scale" runs recorded in
#: EXPERIMENTS.md.  Larger than the registry defaults where the extra scale
#: sharpens the shape, smaller where the default is already expensive.
_REPORT_PARAMS: Dict[str, dict] = {
    "E1": {"sizes": [64, 128, 256, 512, 1024, 2048], "trials": 10, "rounds_factor": 4.0},
    "E2": {"sizes": [64, 128, 256, 512, 1024, 2048], "trials": 10, "budget_factor": 30.0},
    "E3": {"sizes": [64, 256, 1024], "trials": 10, "rounds_factor": 4.0},
    "E4": {"sizes": [64, 256, 1024], "trials": 10, "rounds_factor": 2.0},
    "E5": {"sizes": [128, 256, 512, 1024], "trials": 10},
    "E6": {"n": 1024, "starts": [1, 4, 8, 16, 32], "horizon_factor": 4.0, "mc_trials": 500},
    "E7": {"sizes": [64, 128, 256, 512, 1024], "trials": 10, "rounds_factor": 4.0},
    "E8": {"sizes": [16, 32, 64, 128], "trials": 5, "budget_factor": 40.0},
    "E9": {"n": 256, "gammas": [2.0, 6.0, 12.0, None], "trials": 5, "rounds_factor": 30.0},
    "E10": {"sizes": [64, 256, 1024, 4096], "trials": 10, "window_factor": 1.0},
    "E11": {"n": 256, "window_factors": [1, 4, 16, 64], "trials": 5},
    "E12": {"n": 256, "ratios": [0.5, 1.0, 2.0, 4.0], "trials": 5, "rounds_factor": 4.0},
    "E13": {
        "n": 256,
        "topologies": ["complete", "hypercube", "random_regular", "torus", "cycle"],
        "trials": 3,
        "rounds_factor": 4.0,
    },
    "E14": {"mc_sizes": [2, 4, 8], "mc_trials": 10000},
    "E15": {"n": 256, "lams": [0.5, 0.75, 0.9, 0.99], "trials": 5, "rounds_factor": 8.0},
    "E16": {
        "topologies": [
            "complete:256",
            "hypercube:8",
            "random_regular:256:4",
            "torus:16x16",
            "cycle:256",
            "star:256",
        ],
        "trials": 8,
        "rounds_factor": 4.0,
        "observe_every": 8,
    },
    "A1": {
        "n": 128,
        "disciplines": ["fifo", "lifo", "random", "smallest_id"],
        "trials": 5,
        "rounds_factor": 4.0,
    },
    "A2": {"sizes": [64, 128, 256, 512], "d_values": [1, 2, 4], "trials": 8, "rounds_factor": 1.0},
    "A3": {"n": 256, "rhos": [0.5, 0.75, 0.9, 1.0], "trials": 5, "rounds_factor": 8.0},
}


def report_scale_params(experiment_id: str) -> dict:
    """The parameter overrides the report uses for one experiment.

    Experiments without an explicit entry run with their registry defaults.
    """
    return dict(_REPORT_PARAMS.get(experiment_id.upper(), {}))


def run_report_experiments(
    experiment_ids: Optional[Iterable[str]] = None,
    seed: SeedLike = 0,
) -> List[ExperimentResult]:
    """Run the selected experiments (default: all) at report scale."""
    ids = list(experiment_ids) if experiment_ids is not None else registry.all_ids()
    results = []
    for experiment_id in ids:
        params = report_scale_params(experiment_id)
        results.append(run_experiment(experiment_id, params=params or None, seed=seed))
    return results


def generate_report(
    results: Iterable[ExperimentResult],
    title: str = "EXPERIMENTS — paper claims vs measured behaviour",
    preamble: Optional[str] = None,
    include_timing: bool = False,
    elapsed_seconds: Optional[Dict[str, float]] = None,
) -> str:
    """Render a full markdown report for a list of experiment results."""
    out = io.StringIO()
    out.write(f"# {title}\n\n")
    if preamble:
        out.write(preamble.rstrip() + "\n\n")
    out.write(
        "Each section corresponds to one experiment id of the registry (catalogued in\n"
        "docs/EXPERIMENTS.md).  The *claim* is the paper statement being reproduced, the\n"
        "*expected shape* is what the paper predicts, the table is the measured result of\n"
        "this run, and the notes report the fitted growth laws / shape checks computed by\n"
        "the harness.\n\n"
    )
    for result in results:
        spec = result.spec
        out.write(f"## {spec.experiment_id} — {spec.title}\n\n")
        out.write(f"*Claim:* {spec.claim}.\n\n")
        if spec.expected_shape:
            out.write(f"*Expected shape:* {spec.expected_shape}.\n\n")
        out.write(f"*Parameters:* `{result.params}`\n\n")
        if include_timing and elapsed_seconds and spec.experiment_id in elapsed_seconds:
            out.write(f"*Wall-clock:* {elapsed_seconds[spec.experiment_id]:.1f} s\n\n")
        out.write(format_table(result.rows, style="markdown"))
        out.write("\n")
        for note in result.notes:
            out.write(f"> {note}\n")
        out.write("\n")
    return out.getvalue()


def generate_full_report(
    experiment_ids: Optional[Iterable[str]] = None,
    seed: SeedLike = 0,
    preamble: Optional[str] = None,
) -> str:
    """Run the experiments and render the report in one call (used by the script)."""
    ids = list(experiment_ids) if experiment_ids is not None else registry.all_ids()
    results = []
    elapsed: Dict[str, float] = {}
    for experiment_id in ids:
        start = time.perf_counter()
        params = report_scale_params(experiment_id)
        result = run_experiment(experiment_id, params=params or None, seed=seed)
        elapsed[result.experiment_id] = time.perf_counter() - start
        results.append(result)
    return generate_report(
        results, preamble=preamble, include_timing=True, elapsed_seconds=elapsed
    )
