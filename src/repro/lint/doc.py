"""Render ``docs/STATIC_ANALYSIS.md`` from the live tool catalogs.

The document is *generated*: the rule table comes from
:data:`repro.lint.RULES`, the checked symbol table from
:func:`repro.core.native.kernel_abi`, and the sanitizer matrix from
:data:`repro.core.native.SANITIZE_MODES` plus the variant ladder — so
prose can never drift from what the tools actually enforce.  CI runs
``scripts/generate_static_analysis_doc.py --check`` and fails when the
checked-in file is stale.
"""

from __future__ import annotations

from typing import List

from .findings import RULES
from .rules import R1_EXEMPT_FILES, R2_SCOPE_DIRS

__all__ = ["render_static_analysis_doc"]

_HEADER = """\
# Static analysis

<!-- Generated by scripts/generate_static_analysis_doc.py -- do not edit
     by hand; rerun the generator instead (CI checks staleness). -->

Three layers of static checking run in CI on every push, on top of the
dynamic test suite:

1. **`repro lint`** — a project-invariant linter that enforces the
   determinism and serialization contracts the test suite can only
   sample.
2. **`ruff` + `mypy --strict`** — general Python hygiene (pinned in
   `requirements-ci.txt`, configured in `pyproject.toml`).  `mypy` runs
   strict on the typed core: `repro.types`, `repro.parallel.seeding`,
   `repro.sweeps.spec`, and `repro.scenarios.spec`.
3. **Sanitized kernel builds** — the C kernels recompiled under
   ASan/UBSan/TSan and driven through the conformance harness and the
   threading tests.
"""

_LINT_USAGE = """\
Run it locally:

```
PYTHONPATH=src python -m repro.lint              # whole tree, all rules
PYTHONPATH=src python -m repro lint --select R5  # one rule, CLI alias
PYTHONPATH=src python -m repro.lint --format json
PYTHONPATH=src python -m repro.lint --list-rules
```

Exit codes: `0` clean, `1` findings, `2` usage error.  Findings render
as `path:line: RULE [slug] message`, sorted and deduplicated, so output
is stable across runs and platforms.

Suppressible rules accept a pragma **with a mandatory reason**, on the
offending line or the line above:

```python
except Exception:  # lint: allow-broad-except(probe must treat any failure as a miss)
```

A pragma with no reason, malformed parentheses, or an unknown slug is
itself a finding (`R0 [bad-pragma]`), so suppressions cannot rot
silently.
"""

_ABI_PROSE = """\
The kernels' exported C signatures are hand-mirrored in
`repro.core.native.KERNEL_ABI`: each parameter's C name next to its
`ctypes` type, plus the `restype`.  Every kernel call is built by those
names (`repro.core.native.kernel_args`), and a drifted arity, parameter
order, or integer width corrupts memory instead of failing loudly, so
`repro.lint.abi` parses every `REPRO_ABI`-marked definition out of the C
sources and cross-checks, per symbol:

- **arity** — parameter count matches the declared parameter list;
- **parameter names** — each position's C name matches the declared
  name, so swapping two parameters of the same type (`R`, `n` and
  `rounds` are all `int64_t`) fires too;
- **argument order** — each position's pointer-ness and scalar kind
  match;
- **integer widths** — `int32_t` vs `int64_t` drift fires even when
  both sides are "some int" (`c_int` vs `c_int32` on the same width is
  accepted; a width change is not);
- **coverage** — every non-`static` C export carries `REPRO_ABI` and a
  ctypes declaration, and every declared symbol has a marked
  definition.

Each drifted parameter is one finding that names every way it drifted.
"""

_SANITIZER_PROSE = """\
`REPRO_SANITIZE=asan|ubsan|tsan` selects an instrumented build variant
of the native kernels.  Each mode appends its flags to every variant of
the normal compile ladder; the exact flag list is part of the cache
fingerprint **and** the mode is part of the cached file name
(`{stem}-{mode}-{fingerprint}.so`), so sanitized binaries can never
shadow — or be shadowed by — the fast ones.  The in-process kernel
cache is likewise keyed by `(kernel, mode)`.

`scripts/with_sanitizer.sh <mode> <command...>` wraps a command with
the right environment: it resolves the runtime that a stock CPython
needs preloaded (ASan/TSan; UBSan's runtime links into the `.so`), sets
default `*SAN_OPTIONS`, and **asserts every kernel loads instrumented
before running anything** — a leg that silently fell back to the numpy
kernels would test nothing.  The command runs from a small Python
driver because TSan startup is sensitive to the inherited address-space
layout (CI additionally lowers `vm.mmap_rnd_bits` to 28 for TSan).

Under TSan, `-march=native` is dropped (its instrumentation of
aggressively vectorized code is a known source of false positives), and
so are the `-fopenmp` variants: stock libgomp is not TSan-instrumented,
so the fork/join edges of a parallel region would be invisible and every
main-thread access before or after the region would report as a race.
TSan builds therefore take the pthreads variant
(`-DREPRO_PTHREADS -pthread`), whose thread create/join edges TSan
understands, and the replica bodies — the same code every backend
runs — stay fully checked for worker-vs-worker races.
`with_sanitizer.sh` asserts that a TSan leg loaded the pthreads backend.

CI legs (`sanitizers` job):

| mode  | workload |
| ----- | -------- |
| asan  | `with_sanitizer.sh asan python -m repro verify --level smoke` |
| ubsan | `with_sanitizer.sh ubsan python -m repro verify --level smoke` |
| tsan  | `REPRO_NATIVE_THREADS=2 with_sanitizer.sh tsan python -m pytest tests/test_native_threads.py` |
"""


def _ctype_name(t: object) -> str:
    """Human-readable name of one ctypes argtype/restype."""
    if t is None:
        return "void"
    name = getattr(t, "__name__", str(t))
    if name.startswith("LP_"):
        return f"{name[3:].replace('c_', '')}*"
    return name.replace("c_", "")


def _rule_table() -> List[str]:
    lines = [
        "| rule | slug | suppressible | invariant |",
        "| ---- | ---- | ------------ | --------- |",
    ]
    for info in RULES:
        pragma = f"`allow-{info.slug}`" if info.suppressible else "no"
        lines.append(f"| {info.rule} | `{info.slug}` | {pragma} | {info.title} |")
    return lines


def _abi_table() -> List[str]:
    from ..core.native import kernel_abi

    lines = [
        "| symbol | arity | returns | declared in |",
        "| ------ | ----- | ------- | ----------- |",
    ]
    for name in sorted(kernel_abi()):
        abi = kernel_abi()[name]
        sig = ", ".join(f"{_ctype_name(t)} {p}" for p, t in abi.params) or "void"
        lines.append(
            f"| `{name}({sig})` | {len(abi.argtypes)} | "
            f"`{_ctype_name(abi.restype)}` | `{abi.source.name}` |"
        )
    return lines


def _sanitizer_table() -> List[str]:
    from ..core.native import SANITIZE_MODES, _variant_ladder

    lines = [
        "| mode | flags appended | `-march=native` | `-fopenmp` | build variants |",
        "| ---- | -------------- | --------------- | ---------- | -------------- |",
    ]
    for mode in sorted(SANITIZE_MODES):
        flags = " ".join(f"`{f}`" for f in SANITIZE_MODES[mode])
        ladder = _variant_ladder(mode)
        kept = {
            flag: "kept" if any(flag in v for v in ladder) else "dropped"
            for flag in ("-march=native", "-fopenmp")
        }
        lines.append(
            f"| {mode} | {flags} | {kept['-march=native']} | "
            f"{kept['-fopenmp']} | {len(ladder)} |"
        )
    return lines


def render_static_analysis_doc() -> str:
    """The full ``docs/STATIC_ANALYSIS.md`` content."""
    parts: List[str] = [_HEADER]

    parts.append("## The project linter (`repro lint`)\n")
    parts.extend(_rule_table())
    parts.append("")
    scope_dirs = ", ".join(f"`src/repro/{d}/`" for d in R2_SCOPE_DIRS)
    exempt = ", ".join(f"`src/repro/{f}`" for f in R1_EXEMPT_FILES)
    parts.append(
        f"R1 exempts {exempt} (that file *defines* the seeding contract).  "
        f"R2 applies to the simulation code paths: {scope_dirs}; reporting "
        "and CLI layers may read clocks."
    )
    parts.append("")
    parts.append(_LINT_USAGE)

    for info in RULES:
        parts.append(f"### {info.rule} — {info.title}\n")
        parts.append(info.rationale)
        parts.append("")

    parts.append("## C ↔ ctypes ABI cross-check\n")
    parts.append(_ABI_PROSE)
    parts.extend(_abi_table())
    parts.append("")

    parts.append("## Sanitized kernel builds\n")
    parts.extend(_sanitizer_table())
    parts.append("")
    parts.append(_SANITIZER_PROSE)

    return "\n".join(parts).rstrip() + "\n"
