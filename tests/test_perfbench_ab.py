"""``scripts/perfbench_ab.py`` on canned perfbench result lines."""

from __future__ import annotations

import importlib.util
import json
import os
from pathlib import Path

import pytest

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
        self.cpus = []

    def __call__(self, checkout, workload, seed, env, cpu=None):
        side = "parent" if checkout == self.parent.resolve() else "change"
        self.calls.append((side, workload, seed, env.get("MALLOC_MMAP_THRESHOLD_")))
        self.cpus.append(cpu)
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


def test_cpu_reaches_the_runner(tmp_path):
    parent, change = _checkouts(tmp_path)
    results = {"parent": [_result(100, 1e9)] * 2, "change": [_result(90, 1e9)] * 2}
    cpu = min(os.sched_getaffinity(0))
    pinned, unpinned = _Canned(parent, results), _Canned(parent, results)
    args = [str(parent), str(change), "--workload", "converge_fused", "--pairs", "2"]
    assert ab.main(args + ["--cpu", str(cpu)], run=pinned) == 0
    assert ab.main(args, run=unpinned) == 0
    assert pinned.cpus == [cpu] * 4
    assert unpinned.cpus == [None] * 4


def test_a_cpu_outside_the_affinity_mask_is_refused(tmp_path, capsys):
    parent, change = _checkouts(tmp_path)
    outside = max(os.sched_getaffinity(0)) + 1
    with pytest.raises(SystemExit) as exc:
        ab.main(
            [str(parent), str(change), "--workload", "greedy_d", "--pairs", "1",
             "--cpu", str(outside)],
            run=_Canned(parent, {}),
        )
    assert exc.value.code == 2
    assert f"--cpu {outside}" in capsys.readouterr().err


def test_the_pin_holds_for_run_py_and_its_children(tmp_path):
    """run_perfbench pins the run.py child, and what that child starts
    inherits the pin."""
    checkout = tmp_path / "checkout"
    (checkout / "perfbench").mkdir(parents=True)
    (checkout / "perfbench" / "run.py").write_text(
        "import json, os, subprocess, sys\n"
        "child = subprocess.run([sys.executable, '-c', 'import os; "
        "print(sorted(os.sched_getaffinity(0)))'], capture_output=True, "
        "text=True).stdout\n"
        "print(json.dumps({'correct': True, 'metrics': {\n"
        "    'own': {'value': sorted(os.sched_getaffinity(0))},\n"
        "    'child': {'value': json.loads(child)}}}))\n"
    )
    cpu = max(os.sched_getaffinity(0))
    env = dict(os.environ)
    pinned = ab.parse_result(ab.run_perfbench(checkout, "w", 1, env, cpu=cpu))
    assert pinned["metrics"] == {"own": [cpu], "child": [cpu]}
    free = ab.parse_result(ab.run_perfbench(checkout, "w", 1, env))
    assert free["metrics"]["own"] == sorted(os.sched_getaffinity(0))
