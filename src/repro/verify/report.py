"""Render the verification catalog: the ground-truth matrix for the docs.

The generated ``docs/VERIFICATION.md`` (see
``scripts/generate_verification_matrix.py``) is produced from the same
case catalog the harness runs, so the documented coverage can never
drift from the enforced coverage — the CI staleness check fails the
build if this module's output and the committed file disagree.
"""

from __future__ import annotations

from typing import Dict, List

from .cases import VERIFY_LEVELS, build_cases

__all__ = ["ground_truth_rows", "render_verification_doc"]


def ground_truth_rows(level: str) -> List[Dict[str, str]]:
    """One row per catalog case: which coordinate faces which exact chain."""
    rows = []
    for case in build_cases(level):
        config = dict(case.spec_config)
        process = config.get("process", "rbb")
        if case.runner == "token":
            process = "token"
        elif case.runner == "absorbing":
            process = "bin_load_chain"
        elif case.runner == "scenario_noop":
            process = f"{process}+noop-scenario"
        elif config.get("scenario") is not None:
            process = f"{process}+scenario"
        size = (
            f"n={config.get('n_bins')}"
            if case.runner != "absorbing"
            else f"n={config.get('n_bins')}, k0={config.get('start_level')}"
        )
        replicas = config.get("n_replicas", config.get("trials", "-"))
        rows.append(
            {
                "case": case.name,
                "process": process,
                "engine": case.engine_label,
                "size": size,
                "replicas": str(replicas),
                "horizons": ", ".join(str(h) for h in case.horizons),
                "ground_truth": case.ground_truth,
                "checks": ", ".join(case.checks),
            }
        )
    return rows


def _markdown_table(rows: List[Dict[str, str]]) -> str:
    headers = [
        ("case", "Case"),
        ("process", "Process"),
        ("engine", "Engine coordinate"),
        ("size", "Size"),
        ("replicas", "R"),
        ("horizons", "Horizons"),
        ("ground_truth", "Exact ground truth"),
        ("checks", "Gated statistics"),
    ]
    lines = [
        "| " + " | ".join(title for _, title in headers) + " |",
        "|" + "|".join(" --- " for _ in headers) + "|",
    ]
    for row in rows:
        lines.append(
            "| " + " | ".join(f"`{row[key]}`" for key, _ in headers) + " |"
        )
    return "\n".join(lines)


def render_verification_doc() -> str:
    """The full contents of ``docs/VERIFICATION.md``."""
    parts = [
        "# Verification matrix",
        "",
        "<!-- GENERATED FILE - DO NOT EDIT.",
        "     Regenerate with: python scripts/generate_verification_matrix.py",
        "     CI fails if this file is stale. -->",
        "",
        "`repro verify` cross-validates every engine coordinate (kernel x",
        "thread count x observation fusion) against",
        "the exactly enumerated small-`n` Markov chains of",
        "`repro.markov.small_n` and the Lemma 5 absorbing chain of",
        "`repro.markov.absorbing`.  Empirical distributions over `R`",
        "independent replicas — the full final-configuration distribution,",
        "its max-load / empty-bin functionals, and the",
        "`max_load_seen` / `min_empty_bins_seen` window statistics — are",
        "gated by a pooled chi-square test at a Bonferroni-corrected",
        "family-wise alpha of 1e-3 per invocation.  Failures write",
        "replayable counterexample artifacts to `.verify/`",
        "(`repro verify --replay <artifact>`).",
        "",
        "Trace-level invariants (ball conservation, observer-series",
        "consistency, window reconstruction, legitimacy monotonicity, and",
        "fused-vs-segmented bit-equality) run in the pytest tier; see",
        "`tests/test_verify_trace.py` and `ARCHITECTURE.md`.",
        "",
    ]
    for level in VERIFY_LEVELS:
        rows = ground_truth_rows(level)
        parts.append(f"## Level `{level}` ({len(rows)} cases)")
        parts.append("")
        parts.append(_markdown_table(rows))
        parts.append("")
    parts.append(
        "Native-kernel cases are skipped (and reported) when no C compiler"
    )
    parts.append(
        "is available or `REPRO_NATIVE=0` is set; the numpy fallback legs in"
    )
    parts.append("CI run the same catalog with those cases skipped.")
    parts.append("")
    return "\n".join(parts)
