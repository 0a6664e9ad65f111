#!/usr/bin/env python3
"""Render ``docs/EXPERIMENTS.md`` from the experiment registry.

The catalog is *generated*: every registered experiment contributes its id,
claim, expected shape, default parameters, and report-scale overrides, so
the document can never drift from the code — CI runs ``--check`` and
fails when the checked-in file is stale.

Usage::

    python scripts/generate_experiment_catalog.py           # rewrite the catalog
    python scripts/generate_experiment_catalog.py --check   # fail if stale
"""

from __future__ import annotations

import argparse
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.experiments import registry  # noqa: E402
from repro.experiments.report import report_scale_params  # noqa: E402
from repro.parallel.ensemble import PROCESSES  # noqa: E402
from repro.sweeps import available_sweeps, expand_sweep, get_sweep  # noqa: E402

CATALOG_PATH = ROOT / "docs" / "EXPERIMENTS.md"

HEADER = """\
# Experiment catalog

<!-- GENERATED FILE — do not edit by hand.
     Regenerate with: python scripts/generate_experiment_catalog.py
     CI fails when this file is stale (--check). -->

Every quantitative claim of the paper is registered as an experiment; this
catalog is rendered from that registry
(`repro.experiments.registry`), so ids and parameters are always in sync
with the code.  Run any experiment with:

```bash
PYTHONPATH=src python -m repro run <ID> [-p KEY=VALUE ...]
```

`python -m repro report` runs experiments at *report scale* (the overrides
listed per experiment below) and writes their measured tables; this file
documents what exists, not one run's numbers.
"""


def _format_value(value) -> str:
    return f"`{value!r}`"


def render_catalog() -> str:
    out = io.StringIO()
    out.write(HEADER)
    ids = registry.all_ids()
    out.write("\n## Index\n\n")
    out.write("| id | claim | title |\n")
    out.write("|---|---|---|\n")
    for experiment_id in ids:
        spec = registry.get(experiment_id).spec
        out.write(f"| {spec.experiment_id} | {spec.claim} | {spec.title} |\n")

    for experiment_id in ids:
        spec = registry.get(experiment_id).spec
        out.write(f"\n## {spec.experiment_id} — {spec.title}\n\n")
        out.write(f"- **Claim:** {spec.claim}\n")
        if spec.expected_shape:
            out.write(f"- **Expected shape:** {spec.expected_shape}\n")
        out.write("\n### Default parameters\n\n")
        out.write("| parameter | default |\n")
        out.write("|---|---|\n")
        for key, value in spec.default_params.items():
            out.write(f"| `{key}` | {_format_value(value)} |\n")
        overrides = report_scale_params(spec.experiment_id)
        if overrides:
            out.write("\n### Report-scale overrides\n\n")
            out.write("| parameter | report value |\n")
            out.write("|---|---|\n")
            for key, value in overrides.items():
                out.write(f"| `{key}` | {_format_value(value)} |\n")

    out.write("\n## Process families\n\n")
    out.write(
        "Ensemble experiments route through `run_ensemble`, whose "
        "`EnsembleSpec.process` selector accepts "
        + ", ".join(f"`{p}`" for p in PROCESSES)
        + ": the plain 1-choice repeated balls-into-bins process, the "
        "repeated Greedy[d] allocator, the plain process under the "
        "Section 4.1 adversarial fault model, and topology-constrained "
        "parallel walks on the graph named by `topology=` (e.g. "
        "`\"torus:32x32\"`).\n"
    )

    out.write("\n## Sweep-generated families\n\n")
    out.write(
        "The multi-point parameter families below are generated from "
        "declarative sweep specs (`repro.sweeps.catalog`): the sweep "
        "planner expands the grid and assigns grid-size-independent "
        "per-point seeds, and the same specs run standalone — with a "
        "durable, resumable result store — via "
        "`repro sweep run <name> --store DIR`.  The E9 and A2 experiment "
        "tables are built from these specs (A2 executes through the sweep "
        "scheduler and consumes the store's streaming summaries).\n\n"
    )
    out.write("| sweep | points | description |\n")
    out.write("|---|---|---|\n")
    for name in available_sweeps():
        sweep = get_sweep(name)
        out.write(
            f"| `{name}` | {expand_sweep(sweep).n_points} | "
            f"{sweep.description} |\n"
        )
    return out.getvalue()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero when the checked-in catalog differs from the "
        "rendered one (used by CI)",
    )
    parser.add_argument(
        "--out",
        default=str(CATALOG_PATH),
        help=f"output path (default {CATALOG_PATH})",
    )
    args = parser.parse_args(argv)

    rendered = render_catalog()
    target = Path(args.out)
    if args.check:
        if not target.exists():
            print(f"STALE: {target} does not exist; regenerate with "
                  f"`python {Path(__file__).relative_to(ROOT)}`")
            return 1
        current = target.read_text()
        if current != rendered:
            print(
                f"STALE: {target} does not match the experiment registry; "
                f"regenerate with `python {Path(__file__).relative_to(ROOT)}`"
            )
            return 1
        print(f"{target} is up to date")
        return 0
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(rendered)
    print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
