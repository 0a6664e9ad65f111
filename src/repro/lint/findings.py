"""Finding and rule-catalog data types for the project linter.

A :class:`Finding` is one violation at one location; findings order by
``(path, line, rule)`` so reports are stable across runs and platforms.
:data:`RULES` is the catalog the engine, the CLI (``--list-rules``) and
the ``docs/STATIC_ANALYSIS.md`` generator all read — rule metadata lives
here and nowhere else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

__all__ = ["Finding", "RuleInfo", "RULES", "RULE_IDS", "rule_by_id"]


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str  # repo-relative (posix) where possible
    line: int  # 1-based; 0 when the finding has no specific line
    rule: str  # rule id, e.g. "R5" or "ABI"
    slug: str  # kebab-case rule slug, e.g. "broad-except"
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} [{self.slug}] {self.message}"


@dataclass(frozen=True)
class RuleInfo:
    """Catalog metadata for one lint rule."""

    rule: str
    slug: str
    title: str
    rationale: str
    suppressible: bool  # whether a `# lint: allow-<slug>(reason)` pragma applies


RULES: Tuple[RuleInfo, ...] = (
    RuleInfo(
        rule="R1",
        slug="unseeded-rng",
        title="No unseeded randomness outside parallel/seeding.py",
        rationale=(
            "Every random stream must derive from `parallel.seeding.trial_seed` "
            "(or, for the native kernels' per-replica xoshiro states, its "
            "vectorized twin `parallel.seeding.trial_states`) "
            "so runs are bit-reproducible regardless of schedule.  Zero-argument "
            "`np.random.default_rng()`, any `np.random.seed(...)` (global-state "
            "seeding), the stdlib `random` module, and any `.spawn(...)` call "
            "(`SeedSequence.spawn` and `Generator.spawn` advance their parent) "
            "all create streams the seeding contract cannot see."
        ),
        suppressible=True,
    ),
    RuleInfo(
        rule="R2",
        slug="wall-clock",
        title="No wall-clock or OS nondeterminism in engine/metrics/scenario code",
        rationale=(
            "Engine results must be a pure function of (spec, seed).  "
            "`time.time`/`time.time_ns`, `datetime.now`/`utcnow`/`today`, "
            "`os.urandom`, `uuid.uuid1`/`uuid4` and the `secrets` module leak "
            "host state into simulation code paths.  Duration measurement via "
            "`time.perf_counter`/`time.monotonic` is allowed (and belongs in "
            "the reporting layers anyway)."
        ),
        suppressible=True,
    ),
    RuleInfo(
        rule="R3",
        slug="spec-json-scalar",
        title="Spec fields are JSON-scalar-serializable and round-trip canonically",
        rationale=(
            "Sweeps content-hash resolved `EnsembleSpec` configs and serialize "
            "`SweepSpec`/`ScenarioSpec` through store headers; a field that "
            "does not survive the canonical-JSON round trip silently breaks "
            "point identity, resume, and replay."
        ),
        suppressible=False,
    ),
    RuleInfo(
        rule="R4",
        slug="observer-protocol",
        title="Every registered metric implements the batched observer protocol",
        rationale=(
            "The engines drive metrics exclusively through "
            "`bind(n_replicas, n_bins)` / `observe(t, loads)` / `payload()`; a "
            "registry entry missing any leg fails only when a user first "
            "requests that metric — the linter fails it on every run instead."
        ),
        suppressible=False,
    ),
    RuleInfo(
        rule="R5",
        slug="broad-except",
        title="No blanket `except Exception` without a reasoned pragma",
        rationale=(
            "A broad handler that falls through silently converts programming "
            "errors into wrong numbers.  Where swallowing everything is the "
            "contract (e.g. a picklability probe), say so in a "
            "`# lint: allow-broad-except(reason)` pragma."
        ),
        suppressible=True,
    ),
    RuleInfo(
        rule="ABI",
        slug="abi-drift",
        title="C kernel declarations match the ctypes mirror in core/native.py",
        rationale=(
            "The kernels' exported signatures are hand-mirrored as named "
            "ctypes parameters plus a `restype`, and kernel calls are built "
            "by those names; a drifted arity, parameter name or order, or "
            "integer width corrupts memory instead of failing loudly.  Every "
            "`REPRO_ABI`-marked C definition is parsed and cross-checked, "
            "name and type per parameter, against "
            "`repro.core.native.KERNEL_ABI`."
        ),
        suppressible=False,
    ),
)

#: Rule ids in catalog order (the engine's default selection).
RULE_IDS: Tuple[str, ...] = tuple(info.rule for info in RULES)

_BY_ID: Dict[str, RuleInfo] = {info.rule: info for info in RULES}
_BY_SLUG: Dict[str, RuleInfo] = {info.slug: info for info in RULES}


def rule_by_id(rule: str) -> RuleInfo:
    """Look up catalog metadata by rule id (``"R1"``) or slug."""
    key = rule.strip()
    if key in _BY_ID:
        return _BY_ID[key]
    if key in _BY_SLUG:
        return _BY_SLUG[key]
    raise KeyError(
        f"unknown lint rule {rule!r}; known: "
        f"{', '.join(f'{i.rule} ({i.slug})' for i in RULES)}"
    )
