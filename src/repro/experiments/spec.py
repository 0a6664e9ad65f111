"""Experiment specifications and results.

An :class:`ExperimentSpec` describes one registered experiment: its id
(``E1`` ...), the paper claim it reproduces, and its default parameters.
Running it yields an :class:`ExperimentResult`: a list of flat row
dictionaries (one per parameter point) plus free-form notes — exactly the
shape that the table formatter, the CSV/JSON writers, and EXPERIMENTS.md
consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..errors import ExperimentError

__all__ = ["ExperimentSpec", "ExperimentResult"]


@dataclass(frozen=True)
class ExperimentSpec:
    """Static description of a registered experiment.

    Attributes
    ----------
    experiment_id:
        Short identifier (``"E1"``, ``"A1"``, ...).
    title:
        One-line human-readable title.
    claim:
        The paper statement being checked (theorem/lemma/corollary).
    default_params:
        Parameters used when the caller does not override anything; the
        registry chooses values that complete in seconds.
    expected_shape:
        Short prose description of the expected outcome (who wins / growth
        rate), listed in ``docs/EXPERIMENTS.md``.
    """

    experiment_id: str
    title: str
    claim: str
    default_params: Dict[str, Any] = field(default_factory=dict)
    expected_shape: str = ""

    def merged_params(self, overrides: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """Defaults overlaid with caller overrides (unknown keys rejected)."""
        params = dict(self.default_params)
        if overrides:
            unknown = set(overrides) - set(self.default_params)
            if unknown:
                raise ExperimentError(
                    f"{self.experiment_id}: unknown parameter(s) {sorted(unknown)}; "
                    f"accepted: {sorted(self.default_params)}"
                )
            params.update(overrides)
        return params


@dataclass
class ExperimentResult:
    """Outcome of running one experiment.

    Attributes
    ----------
    spec:
        The specification that produced this result.
    params:
        The resolved parameters actually used.
    rows:
        One flat dict per table row.
    notes:
        Free-form findings (fit exponents, pass/fail of shape checks, ...).
    """

    spec: ExperimentSpec
    params: Dict[str, Any]
    rows: List[Dict[str, Any]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def experiment_id(self) -> str:
        return self.spec.experiment_id

    def add_row(self, **fields: Any) -> None:
        """Append a table row."""
        self.rows.append(dict(fields))

    def add_note(self, note: str) -> None:
        """Append a free-form note."""
        self.notes.append(str(note))

    def column(self, name: str) -> List[Any]:
        """Extract one column across all rows (missing values are an error)."""
        try:
            return [row[name] for row in self.rows]
        except KeyError as exc:
            raise ExperimentError(
                f"{self.experiment_id}: column {name!r} missing from some row"
            ) from exc

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable representation."""
        return {
            "experiment_id": self.spec.experiment_id,
            "title": self.spec.title,
            "claim": self.spec.claim,
            "params": self.params,
            "rows": self.rows,
            "notes": self.notes,
        }
