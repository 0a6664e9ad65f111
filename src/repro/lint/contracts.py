"""Contract rules R3 and R4: spec serializability and observer protocol.

These rules are structural rather than textual: they import the real
classes and verify the invariants the rest of the stack assumes —

R3
    Every field of :class:`EnsembleSpec` resolves to a JSON-scalar (or a
    tuple of scalars with a scalar spelling), and the resolved config
    survives the canonical-JSON round trip with an identical content
    hash.  Every catalogued :class:`SweepSpec` and scenario round-trips
    losslessly through its own ``to_dict``/``to_json``.
R4
    Every name in :data:`repro.metrics.METRIC_NAMES` builds a tracker
    that actually implements the batched observer protocol:
    ``bind(n_replicas, n_bins)``, ``observe(t, (R, n) loads)``, and a
    ``payload()`` producing a :class:`~repro.metrics.payload.MetricPayload`.

Both take their check targets as arguments (defaulting to the real
registry/catalogs) so the test suite can feed deliberately broken fakes.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
from typing import Any, Callable, Dict, List, Mapping, Optional

import numpy as np

from .findings import Finding

__all__ = ["check_spec_contracts", "check_observer_contracts"]

_SCALAR_TYPES = (bool, int, float, str, type(None))


def _location(obj: Any) -> tuple:
    """Best-effort (repo-relative path, line) of a class or function."""
    try:
        path = inspect.getsourcefile(obj) or "<unknown>"
        line = inspect.getsourcelines(obj)[1]
    except (OSError, TypeError):
        return "<unknown>", 0
    marker = "src/repro/"
    pos = path.replace("\\", "/").find(marker)
    if pos >= 0:
        path = path[pos:]
    return path, line


def _is_scalar(value: Any) -> bool:
    return isinstance(value, _SCALAR_TYPES)


def _is_scalar_or_scalar_tuple(value: Any) -> bool:
    if _is_scalar(value):
        return True
    if isinstance(value, (tuple, list)):
        return all(_is_scalar(item) for item in value)
    return False


def _canonical_json(config: Mapping[str, Any]) -> str:
    return json.dumps(
        dict(config), sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def _check_ensemble_spec(spec_cls: type, findings: List[Finding]) -> None:
    path, line = _location(spec_cls)

    def flag(message: str) -> None:
        findings.append(
            Finding(path, line, "R3", "spec-json-scalar", message)
        )

    if not dataclasses.is_dataclass(spec_cls):
        flag(f"{spec_cls.__name__} is not a dataclass; fields cannot be audited")
        return
    # Exercise the default surface plus the compound fields (metrics,
    # scenario) that have dedicated scalar spellings.
    try:
        instances = [
            spec_cls(n_bins=8, n_replicas=2, rounds=4),
            spec_cls(
                n_bins=8,
                n_replicas=2,
                rounds=32,
                metrics="max_load,empty_bins",
                observe_every=4,
                scenario='{"events":[{"kind":"burst","round":1,"count":2}]}',
            ),
        ]
    except Exception as exc:  # lint: allow-broad-except(any constructor failure is the finding being reported)
        flag(f"cannot construct a canonical {spec_cls.__name__}: {exc!r}")
        return
    for spec in instances:
        config = {
            f.name: getattr(spec, f.name) for f in dataclasses.fields(spec)
        }
        for name, value in config.items():
            if not _is_scalar_or_scalar_tuple(value):
                flag(
                    f"field {name!r} resolves to {type(value).__name__}, "
                    "which has no JSON-scalar spelling — sweeps cannot hash "
                    "or round-trip it"
                )
        try:
            encoded = _canonical_json(config)
        except (TypeError, ValueError) as exc:
            flag(f"resolved config is not canonical-JSON encodable: {exc}")
            continue
        try:
            rebuilt = spec_cls(**json.loads(encoded))
        except Exception as exc:  # lint: allow-broad-except(any reconstruction failure is the finding being reported)
            flag(
                "resolved config does not reconstruct through "
                f"{spec_cls.__name__}(**json.loads(...)): {exc!r}"
            )
            continue
        rebuilt_config = {
            f.name: getattr(rebuilt, f.name)
            for f in dataclasses.fields(rebuilt)
        }
        if _canonical_json(rebuilt_config) != encoded:
            flag(
                "canonical-JSON round trip is lossy: re-resolved config "
                "differs from the original (point content hashes would "
                "disagree)"
            )


def _check_sweep_catalog(findings: List[Finding]) -> None:
    from ..sweeps import SweepSpec, available_sweeps, get_sweep

    path, line = _location(SweepSpec)
    for name in available_sweeps():
        spec = get_sweep(name)
        first = spec.to_dict()
        try:
            rebuilt = SweepSpec.from_dict(json.loads(json.dumps(first)))
        except Exception as exc:  # lint: allow-broad-except(any round-trip failure is the finding being reported)
            findings.append(
                Finding(
                    path,
                    line,
                    "R3",
                    "spec-json-scalar",
                    f"catalogued sweep {name!r} does not round-trip through "
                    f"to_dict/from_dict: {exc!r}",
                )
            )
            continue
        if rebuilt.to_dict() != first:
            findings.append(
                Finding(
                    path,
                    line,
                    "R3",
                    "spec-json-scalar",
                    f"catalogued sweep {name!r} round-trips lossily through "
                    "to_dict/from_dict",
                )
            )


def _check_scenario_catalog(findings: List[Finding]) -> None:
    from ..scenarios import available_scenarios, resolve_scenario
    from ..scenarios.spec import ScenarioSpec

    path, line = _location(ScenarioSpec)

    def flag(message: str) -> None:
        findings.append(Finding(path, line, "R3", "spec-json-scalar", message))

    for name in available_scenarios():
        scenario = resolve_scenario(name)
        encoded = scenario.to_json()
        rebuilt = ScenarioSpec.from_json(encoded)
        if rebuilt.to_json() != encoded:
            flag(f"catalogued scenario {name!r} round-trips lossily to_json/from_json")
        for event in scenario.to_dict().get("events", []):
            for key, value in event.items():
                if not _is_scalar(value):
                    flag(
                        f"catalogued scenario {name!r} event field {key!r} is "
                        f"{type(value).__name__}, not a JSON scalar"
                    )


def check_spec_contracts(
    spec_cls: Optional[type] = None,
    include_catalogs: bool = True,
) -> List[Finding]:
    """R3: spec fields are JSON scalars and round-trip canonically."""
    if spec_cls is None:
        from ..parallel.ensemble import EnsembleSpec

        spec_cls = EnsembleSpec
    findings: List[Finding] = []
    _check_ensemble_spec(spec_cls, findings)
    if include_catalogs:
        _check_sweep_catalog(findings)
        _check_scenario_catalog(findings)
    return findings


def _default_factories() -> Dict[str, Callable[[], object]]:
    from ..metrics import METRIC_NAMES
    from ..metrics.registry import make_tracker

    return {name: (lambda n=name: make_tracker(n)) for name in METRIC_NAMES}


def check_observer_contracts(
    factories: Optional[Mapping[str, Callable[[], object]]] = None,
) -> List[Finding]:
    """R4: every registered metric honors the batched observer protocol."""
    from ..metrics.payload import MetricPayload

    if factories is None:
        factories = _default_factories()
    findings: List[Finding] = []
    for name in factories:
        tracker = factories[name]()
        path, line = _location(type(tracker))

        def flag(message: str) -> None:
            findings.append(
                Finding(
                    path,
                    line,
                    "R4",
                    "observer-protocol",
                    f"metric {name!r} ({type(tracker).__name__}): {message}",
                )
            )

        missing = [
            leg
            for leg in ("bind", "observe", "payload")
            if not callable(getattr(tracker, leg, None))
        ]
        if missing:
            flag(
                "missing batched observer protocol method(s) "
                + ", ".join(missing)
            )
            continue
        try:
            signature = inspect.signature(tracker.observe)
            positional = [
                p
                for p in signature.parameters.values()
                if p.kind
                in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
            ]
            if len(positional) < 2:
                flag(
                    "observe must accept (round_index, loads), got "
                    f"signature {signature}"
                )
                continue
        except (TypeError, ValueError):
            pass  # builtins without introspectable signatures: exercise below
        # Behavioral smoke: drive the protocol exactly as the engines do.
        try:
            tracker.bind(2, 4)
            loads = np.zeros((2, 4), dtype=np.int64)
            tracker.observe(0, loads)
            payload = tracker.payload()
        except Exception as exc:  # lint: allow-broad-except(any protocol failure is the finding being reported)
            flag(f"driving bind/observe/payload raised {exc!r}")
            continue
        if not isinstance(payload, MetricPayload):
            flag(
                "payload() must return a MetricPayload, got "
                f"{type(payload).__name__}"
            )
    return findings
