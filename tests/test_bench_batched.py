"""The floor checks of ``benchmarks/bench_batched.py`` (no timing runs here)."""

from __future__ import annotations

import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_batched.py"


def _load_bench():
    spec = importlib.util.spec_from_file_location("bench_batched", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_missed_floor_message_shows_the_floor_it_checks():
    bench = _load_bench()
    failures = bench.check_targets({"scenario_interpreter": {"speedup": 0.93}})
    assert len(failures) == 1
    assert "0.93x < 0.95x target" in failures[0]
