"""AST rules: R1 (unseeded RNG), R2 (wall clock), R5 (broad except).

Each rule is a function ``(tree, rel_path, pragmas) -> List[Finding]``
over one parsed module.  ``pragmas`` maps line numbers to the rule slugs
suppressed there (see :func:`collect_pragmas`); a finding is suppressed
when its line — or the line directly above it — carries a matching
``# lint: allow-<slug>(reason)`` pragma with a non-empty reason.

The rules are deliberately alias-aware (``import numpy as np``,
``from time import time as now``) but make no attempt at data-flow
analysis: they catch the spellings that occur in practice, and the
dynamic tiers (`repro verify`, the test suite) back them up.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .findings import Finding, rule_by_id

__all__ = [
    "collect_pragmas",
    "check_unseeded_rng",
    "check_wall_clock",
    "check_broad_except",
    "R1_EXEMPT_FILES",
    "R2_SCOPE_DIRS",
]

#: Files (relative to the lint root, posix) exempt from R1 — the one
#: place allowed to construct seed material.
R1_EXEMPT_FILES: Tuple[str, ...] = ("parallel/seeding.py",)

#: Top-level package directories whose modules count as engine/metrics/
#: scenario code for R2.  Reporting layers (experiments, sweeps, verify,
#: store) legitimately measure durations and are out of scope.
R2_SCOPE_DIRS: Tuple[str, ...] = (
    "core",
    "metrics",
    "scenarios",
    "graphs",
    "adversary",
    "baselines",
    "traversal",
    "parallel",
)

_PRAGMA_RE = re.compile(r"#\s*lint:\s*allow-([a-z0-9-]+)\s*(\(([^)]*)\))?")


def collect_pragmas(
    source: str, rel_path: str
) -> Tuple[Dict[int, Set[str]], List[Finding]]:
    """Extract ``# lint: allow-<slug>(reason)`` pragmas from one module.

    Returns ``(line -> suppressed slugs, malformed-pragma findings)``.
    A pragma with an unknown slug, no parenthesized reason, or an empty
    reason is itself a finding — an unreadable suppression is worse than
    none.
    """
    pragmas: Dict[int, Set[str]] = {}
    findings: List[Finding] = []
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return {}, []  # unparsable files are reported by the engine
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        match = _PRAGMA_RE.search(tok.string)
        if match is None:
            continue
        slug, parens, reason = match.group(1), match.group(2), match.group(3)
        line = tok.start[0]
        try:
            info = rule_by_id(slug)
        except KeyError:
            findings.append(
                Finding(
                    rel_path,
                    line,
                    "R0",
                    "pragma",
                    f"pragma names unknown rule slug {slug!r}",
                )
            )
            continue
        if not info.suppressible:
            findings.append(
                Finding(
                    rel_path,
                    line,
                    "R0",
                    "pragma",
                    f"rule {info.rule} ({info.slug}) cannot be suppressed "
                    "with a pragma",
                )
            )
            continue
        if parens is None or not (reason or "").strip():
            findings.append(
                Finding(
                    rel_path,
                    line,
                    "R0",
                    "pragma",
                    f"pragma allow-{slug} needs a non-empty reason: "
                    f"# lint: allow-{slug}(why this is safe)",
                )
            )
            continue
        pragmas.setdefault(line, set()).add(slug)
    return pragmas, findings


def _suppressed(pragmas: Dict[int, Set[str]], line: int, slug: str) -> bool:
    """Same line or the line directly above."""
    return slug in pragmas.get(line, ()) or slug in pragmas.get(line - 1, ())


class _ImportMap(ast.NodeVisitor):
    """Track what local names are bound to the modules the rules watch."""

    def __init__(self) -> None:
        #: local alias -> fully qualified module ("np" -> "numpy")
        self.modules: Dict[str, str] = {}
        #: local name -> fully qualified function ("now" -> "time.time")
        self.names: Dict[str, str] = {}
        #: ``from X import ...`` statements seen: (lineno, module, names)
        self.from_imports: List[Tuple[int, str, List[str]]] = []
        #: plain ``import X`` statements seen: (lineno, module)
        self.plain_imports: List[Tuple[int, str]] = []

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.plain_imports.append((node.lineno, alias.name))
            if alias.asname:
                self.modules[alias.asname] = alias.name
            else:
                root = alias.name.split(".")[0]
                self.modules[root] = root
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module and node.level == 0:
            self.from_imports.append(
                (node.lineno, node.module, [a.name for a in node.names])
            )
            for alias in node.names:
                self.names[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
        self.generic_visit(node)


def _qualify(node: ast.expr, imports: _ImportMap) -> Optional[str]:
    """Resolve a call target to a dotted name rooted at a real module.

    ``np.random.default_rng`` -> ``numpy.random.default_rng`` when ``np``
    aliases numpy; a bare name resolves through ``from X import name``.
    Returns ``None`` for targets the import map cannot anchor.
    """
    parts: List[str] = []
    cursor = node
    while isinstance(cursor, ast.Attribute):
        parts.append(cursor.attr)
        cursor = cursor.value
    if isinstance(cursor, ast.Name):
        root = cursor.id
        if root in imports.modules:
            parts.append(imports.modules[root])
        elif root in imports.names and not parts:
            return imports.names[root]
        elif root in imports.names:
            parts.append(imports.names[root])
        else:
            return None
        return ".".join(reversed(parts))
    return None


def _iter_calls(tree: ast.AST) -> Iterable[ast.Call]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield node


def check_unseeded_rng(
    tree: ast.AST, rel_path: str, pragmas: Dict[int, Set[str]]
) -> List[Finding]:
    """R1: unseeded/global RNG outside the seeding module."""
    slug = "unseeded-rng"
    if rel_path.replace("\\", "/") in R1_EXEMPT_FILES:
        return []
    imports = _ImportMap()
    imports.visit(tree)
    findings: List[Finding] = []

    def flag(line: int, message: str) -> None:
        if not _suppressed(pragmas, line, slug):
            findings.append(Finding(rel_path, line, "R1", slug, message))

    for lineno, module, names in imports.from_imports:
        if module == "random" or module.startswith("random."):
            flag(
                lineno,
                f"stdlib random import ({', '.join(names)}) — derive streams "
                "from parallel.seeding.trial_seed instead",
            )
    for call in _iter_calls(tree):
        if isinstance(call.func, ast.Attribute) and call.func.attr == "spawn":
            flag(
                call.lineno,
                ".spawn() derives child seeds outside the seeding contract "
                "(SeedSequence.spawn also advances its parent); use "
                "parallel.seeding.trial_seed",
            )
            continue
        target = _qualify(call.func, imports)
        if target is None:
            continue
        if target in ("numpy.random.seed", "numpy.random.mtrand.seed"):
            flag(
                call.lineno,
                "np.random.seed mutates global RNG state; seed an explicit "
                "Generator via parallel.seeding.trial_seed",
            )
        elif target == "numpy.random.default_rng" and not (
            call.args or call.keywords
        ):
            flag(
                call.lineno,
                "unseeded np.random.default_rng() draws OS entropy; pass a "
                "seed derived from parallel.seeding.trial_seed",
            )
        elif target.startswith("random.") and target.count(".") == 1:
            flag(
                call.lineno,
                f"stdlib {target}() uses the global, schedule-dependent RNG; "
                "derive streams from parallel.seeding.trial_seed",
            )
    return findings


#: Fully qualified callables R2 bans in engine-scope modules.
_R2_BANNED: Dict[str, str] = {
    "time.time": "wall-clock read",
    "time.time_ns": "wall-clock read",
    "datetime.datetime.now": "wall-clock read",
    "datetime.datetime.utcnow": "wall-clock read",
    "datetime.datetime.today": "wall-clock read",
    "datetime.date.today": "wall-clock read",
    "os.urandom": "OS entropy",
    "uuid.uuid1": "host/time-derived id",
    "uuid.uuid4": "OS-entropy id",
}


def check_wall_clock(
    tree: ast.AST, rel_path: str, pragmas: Dict[int, Set[str]]
) -> List[Finding]:
    """R2: wall-clock / OS nondeterminism in engine-scope modules."""
    slug = "wall-clock"
    rel = rel_path.replace("\\", "/")
    if rel.split("/", 1)[0] not in R2_SCOPE_DIRS:
        return []
    imports = _ImportMap()
    imports.visit(tree)
    findings: List[Finding] = []

    def flag(line: int, message: str) -> None:
        if not _suppressed(pragmas, line, slug):
            findings.append(Finding(rel_path, line, "R2", slug, message))

    secrets_imports = [
        (lineno, module)
        for lineno, module in imports.plain_imports
        if module == "secrets" or module.startswith("secrets.")
    ] + [
        (lineno, module)
        for lineno, module, _names in imports.from_imports
        if module == "secrets"
    ]
    for lineno, _module in secrets_imports:
        flag(
            lineno,
            "the secrets module is OS entropy by definition; engine code "
            "must stay a pure function of (spec, seed)",
        )
    for call in _iter_calls(tree):
        target = _qualify(call.func, imports)
        if target is None:
            continue
        why = _R2_BANNED.get(target)
        if why is not None:
            flag(
                call.lineno,
                f"{target} is {why}; engine results must depend only on "
                "(spec, seed) — durations belong to the reporting layers "
                "via time.perf_counter/monotonic",
            )
    return findings


_BROAD_NAMES = ("Exception", "BaseException")


def check_broad_except(
    tree: ast.AST, rel_path: str, pragmas: Dict[int, Set[str]]
) -> List[Finding]:
    """R5: blanket exception handlers without a reasoned pragma."""
    slug = "broad-except"
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        broad: Optional[str] = None
        if node.type is None:
            broad = "bare except:"
        elif isinstance(node.type, ast.Name) and node.type.id in _BROAD_NAMES:
            broad = f"except {node.type.id}"
        elif isinstance(node.type, ast.Tuple):
            for element in node.type.elts:
                if isinstance(element, ast.Name) and element.id in _BROAD_NAMES:
                    broad = f"except (..., {element.id}, ...)"
                    break
        if broad is None:
            continue
        if _suppressed(pragmas, node.lineno, slug):
            continue
        findings.append(
            Finding(
                rel_path,
                node.lineno,
                "R5",
                slug,
                f"{broad} swallows programming errors; narrow the handler "
                "or justify it with # lint: allow-broad-except(reason)",
            )
        )
    return findings
