"""``scripts/catalog_ab.py`` on canned child result lines."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load_script():
    spec = importlib.util.spec_from_file_location(
        "catalog_ab", ROOT / "scripts" / "catalog_ab.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ab = _load_script()


def _line(digest, seconds):
    """A child's output: anything, then its result line."""
    result = {"sha256": digest, "seconds": seconds, "cold_seconds": seconds + 0.8}
    return f"a warning\n{json.dumps(result)}\n"


class _Canned:
    """A stand-in for the children: canned lines per (side, experiment,
    seed), consumed run by run, calls logged."""

    def __init__(self, parent, results):
        self.parent = parent.resolve()
        self.results = {key: list(lines) for key, lines in results.items()}
        self.calls = []

    def __call__(self, checkout, experiment, seed):
        side = "parent" if checkout == self.parent else "change"
        self.calls.append((side, experiment, seed))
        return self.results[side, experiment, seed].pop(0)


def _no_listing(checkout):
    raise AssertionError("--only was given; the registry must not be listed")


def test_parse_child_reads_the_last_line():
    assert ab.parse_child(_line("ab" * 32, 1.5)) == {
        "sha256": "ab" * 32, "seconds": 1.5, "cold_seconds": 2.3,
    }


def test_runs_alternate_and_equal_rows_pass(tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    canned = _Canned(parent, {
        ("parent", "E8", 0): [_line("a", 2.0), _line("a", 1.8), _line("a", 2.2)],
        ("change", "E8", 0): [_line("a", 1.0), _line("a", 1.2), _line("a", 0.9)],
        ("parent", "E8", 7): [_line("b", 2.1), _line("b", 1.9), _line("b", 2.0)],
        ("change", "E8", 7): [_line("b", 1.1), _line("b", 1.0), _line("b", 1.0)],
    })
    code = ab.main(
        [str(parent), str(change), "--only", "E8", "--seeds", "0", "7", "--runs", "3"],
        run=canned, list_ids=_no_listing,
    )
    assert code == 0
    assert canned.calls == [
        ("parent", "E8", 0), ("change", "E8", 0),
        ("change", "E8", 0), ("parent", "E8", 0),
        ("parent", "E8", 0), ("change", "E8", 0),
        ("parent", "E8", 7), ("change", "E8", 7),
        ("change", "E8", 7), ("parent", "E8", 7),
        ("parent", "E8", 7), ("change", "E8", 7),
    ]
    out = capsys.readouterr().out.splitlines()
    assert out[0].split()[:6] == ["E8", "seed", "0", "run", "1", "parent"]
    # medians over both seeds: parent (1.8 1.9 2.0 2.0 2.1 2.2) -> 2.0,
    # change (0.9 1.0 1.0 1.0 1.1 1.2) -> 1.0; the parent's quartiles
    # are 1.875 and 2.125
    assert out[-1].split() == ["E8", "0:yes", "7:yes", "2.000", "1.000", "0.500", "0.250"]


def test_differing_rows_fail_the_ab(tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    canned = _Canned(parent, {
        ("parent", "A1", 0): [_line("a", 1.0)],
        ("change", "A1", 0): [_line("c", 0.5)],
        ("parent", "E11", 0): [_line("d", 1.0)],
        ("change", "E11", 0): [_line("d", 1.0)],
    })
    code = ab.main(
        [str(parent), str(change), "--only", "A1,E11", "--seeds", "0"],
        run=canned, list_ids=_no_listing,
    )
    assert code == 1
    captured = capsys.readouterr()
    summary = {line.split()[0]: line.split()[1] for line in captured.out.splitlines()[-2:]}
    assert summary == {"A1": "0:NO", "E11": "0:yes"}
    assert "some rows differ" in captured.err


def test_every_registered_experiment_runs_without_only(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    canned = _Canned(parent, {
        (side, experiment, 0): [_line("x", 1.0)]
        for side in ("parent", "change") for experiment in ("E1", "A3")
    })
    listed = []

    def list_ids(checkout):
        listed.append(checkout)
        return ["E1", "A3"]

    code = ab.main([str(parent), str(change), "--seeds", "0"], run=canned, list_ids=list_ids)
    assert code == 0
    assert listed == [change.resolve()]
    assert [experiment for _, experiment, _ in canned.calls] == ["E1", "E1", "A3", "A3"]


def test_a_failed_child_fails_the_ab(tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"

    def run(checkout, experiment, seed):
        raise ab.RunFailed("exited 1")

    code = ab.main(
        [str(parent), str(change), "--only", "E8", "--seeds", "0"],
        run=run, list_ids=_no_listing,
    )
    assert code == 1
    assert "E8 seed 0 run 1 parent: exited 1" in capsys.readouterr().err
