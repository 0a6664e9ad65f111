"""``scripts/perfbench_ab.py`` on canned perfbench result lines."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load_script():
    spec = importlib.util.spec_from_file_location(
        "perfbench_ab", ROOT / "scripts" / "perfbench_ab.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ab = _load_script()

END_TO_END = [
    {"name": "op_p50_ms", "better": "lower"},
    {"name": "bin_updates_per_s", "better": "higher"},
]


def _result(op_ms, rate, correct=True):
    """perfbench's last two lines: diagnostics, then the result."""
    return "\n".join([
        json.dumps({"diagnostics": {"host": "test"}}),
        json.dumps({
            "correct": correct, "attempted": 5, "failed": 0 if correct else 1,
            "metrics": {
                "op_p50_ms": {"value": op_ms, "unit": "ms"},
                "bin_updates_per_s": {"value": rate, "unit": "1/s"},
            },
        }),
    ]) + "\n"


def _checkouts(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for checkout in (parent, change):
        checkout.mkdir()
        (checkout / "BENCHMARK.json").write_text(
            json.dumps({"end_to_end": END_TO_END})
        )
    return parent, change


class _Canned:
    """A stand-in for perfbench: canned lines per (side, seed), calls logged."""

    def __init__(self, parent, results):
        self.parent = parent
        self.results = results
        self.calls = []

    def __call__(self, checkout, workload, seed, env):
        side = "parent" if checkout == self.parent.resolve() else "change"
        self.calls.append((side, workload, seed, env.get("MALLOC_MMAP_THRESHOLD_")))
        return self.results[side][seed - 1]


def test_parse_result_reads_the_last_line():
    parsed = ab.parse_result(_result(12.5, 3e9))
    assert parsed == {
        "correct": True,
        "metrics": {"op_p50_ms": 12.5, "bin_updates_per_s": 3e9},
    }


def test_pairs_alternate_and_the_summary_counts_wins(tmp_path, capsys):
    parent, change = _checkouts(tmp_path)
    canned = _Canned(parent, {
        "parent": [_result(100, 1e9), _result(110, 0.9e9), _result(90, 1.1e9)],
        "change": [_result(80, 1.2e9), _result(115, 0.8e9), _result(70, 1.4e9)],
    })
    code = ab.main(
        [str(parent), str(change), "--workload", "sweep_wide", "--pairs", "3"],
        run=canned,
    )
    assert code == 0
    assert [(side, seed) for side, _, seed, _ in canned.calls] == [
        ("parent", 1), ("change", 1),
        ("change", 2), ("parent", 2),
        ("parent", 3), ("change", 3),
    ]
    assert {workload for _, workload, _, _ in canned.calls} == {"sweep_wide"}
    assert {mmap for *_, mmap in canned.calls} == {None}
    out = capsys.readouterr().out.splitlines()
    assert out[0].split() == [
        "pair", "1", "seed", "1", "parent", "op_p50_ms=100",
        "bin_updates_per_s=1e+09",
    ]
    summary = {line.split()[0]: line.split()[1:] for line in out[-2:]}
    # medians 100 vs 80 ms: the change won pairs 1 and 3; the parent's
    # quartiles of (90, 100, 110) are 90 and 110
    assert summary["op_p50_ms"] == ["100", "80", "0.800", "2/3", "20"]
    assert summary["bin_updates_per_s"] == [
        "1e+09", "1.2e+09", "1.200", "2/3", "2e+08",
    ]


def test_mmap_threshold_is_set_on_both_sides(tmp_path):
    parent, change = _checkouts(tmp_path)
    canned = _Canned(parent, {
        "parent": [_result(100, 1e9)], "change": [_result(90, 1e9)],
    })
    ab.main(
        [str(parent), str(change), "--workload", "converge_fused",
         "--pairs", "1", "--mmap-threshold", "131072"],
        run=canned,
    )
    assert [mmap for *_, mmap in canned.calls] == ["131072", "131072"]


def test_an_incorrect_run_fails_the_ab(tmp_path, capsys):
    parent, change = _checkouts(tmp_path)
    canned = _Canned(parent, {
        "parent": [_result(100, 1e9)], "change": [_result(90, 1e9, correct=False)],
    })
    code = ab.main(
        [str(parent), str(change), "--workload", "greedy_d", "--pairs", "1"],
        run=canned,
    )
    assert code == 1
    assert "pair 1 change: correct is false" in capsys.readouterr().err
