"""Trace-invariant tests: conservation, observer consistency, bit-equality.

Each engine's recorded ``(T, R, n)`` trace is replayed through the
machine-checked invariants of :mod:`repro.verify.trace`; a deliberately
leaky kernel must be caught with a minimized, replayable counterexample.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.batched import BatchedRepeatedBallsIntoBins
from repro.errors import ConfigurationError
from repro.metrics.trackers import BatchedLoadHistogramTracker
from repro.verify import (
    check_trace_invariants,
    fused_vs_segmented,
    load_artifact,
    replay_artifact,
)
from repro.verify.cases import native_kernel_available

needs_native = pytest.mark.skipif(
    not native_kernel_available("rbb"), reason="native rbb kernel unavailable"
)

BASE_SPEC = {
    "n_bins": 4,
    "n_replicas": 8,
    "rounds": 12,
    "start": "all_in_one",
}


class TestInvariantsHold:
    def test_batched_numpy(self):
        result = check_trace_invariants(BASE_SPEC, seed=0)
        assert result.passed, [v.describe() for v in result.violations]

    @needs_native
    def test_batched_native_two_threads(self):
        result = check_trace_invariants(
            BASE_SPEC, seed=2, kernel="native", n_threads=2
        )
        assert result.passed, [v.describe() for v in result.violations]

    def test_faulty_process_conserves_across_injections(self):
        spec = {
            **BASE_SPEC,
            "process": "faulty",
            "adversary": "concentrate",
            "fault_period": 3,
            "start": "balanced",
        }
        result = check_trace_invariants(spec, seed=3)
        assert result.passed, [v.describe() for v in result.violations]

    def test_d_choices(self):
        spec = {**BASE_SPEC, "process": "d_choices", "d": 2}
        result = check_trace_invariants(spec, seed=4)
        assert result.passed, [v.describe() for v in result.violations]

    def test_graph_walks(self):
        spec = {
            **BASE_SPEC,
            "process": "graph_walks",
            "topology": "cycle:4",
            "constrained": True,
        }
        result = check_trace_invariants(spec, seed=5)
        assert result.passed, [v.describe() for v in result.violations]

    def test_observe_every_must_be_one(self):
        with pytest.raises(ConfigurationError):
            check_trace_invariants({**BASE_SPEC, "observe_every": 3}, seed=0)


def _leaky_advance(self):
    """Deliberate conservation bug: replica 0 loses one ball per round."""
    loads = self._loads
    nonempty = loads > 0
    counts = np.count_nonzero(nonempty, axis=1)
    if counts.any():
        loads -= nonempty
        total = int(counts.sum())
        destinations = self._rng.integers(0, self._n_bins, size=total)
        rows = np.repeat(np.arange(self._n_replicas), counts)
        flat = rows * self._n_bins + destinations
        loads += np.bincount(
            flat, minlength=self._n_replicas * self._n_bins
        ).reshape(self._n_replicas, self._n_bins)
        leak_bin = int(np.argmax(loads[0] > 0))
        if loads[0, leak_bin] > 0:
            loads[0, leak_bin] -= 1


def _inject_leak(monkeypatch):
    """Install the leaky kernel and silence the engine's own guard.

    A genuinely buggy kernel would not self-report, so the engine's
    internal ``_check_conservation`` is disabled too — the verifier must
    recompute conservation from the recorded trace on its own.
    """
    monkeypatch.setattr(BatchedRepeatedBallsIntoBins, "_advance", _leaky_advance)
    monkeypatch.setattr(
        BatchedRepeatedBallsIntoBins, "_check_conservation", lambda self: None
    )


class TestInjectedLeak:
    def test_leaky_kernel_violates_conservation_with_minimized_artifact(
        self, tmp_path, monkeypatch
    ):
        _inject_leak(monkeypatch)
        result = check_trace_invariants(BASE_SPEC, seed=6)
        assert not result.passed
        invariants = {v.invariant for v in result.violations}
        assert "ball_conservation" in invariants
        conservation = next(
            v for v in result.violations if v.invariant == "ball_conservation"
        )
        # the leak hits replica 0 at the very first observed round
        assert conservation.replica == 0

        paths = result.emit_artifacts(str(tmp_path))
        assert paths
        artifact = load_artifact(paths[0])
        assert artifact.kind == "invariant"
        history = artifact.violation["state_history"]
        # minimized: truncated at the first violating round, replica 0 only
        assert history
        assert history[-1]["round"] == conservation.round_index
        assert len(history[0]["loads"]) == BASE_SPEC["n_bins"]

        # replay against the fixed engine: the invariant holds again
        monkeypatch.undo()
        report = replay_artifact(paths[0])
        assert report.passed

    def test_leaky_kernel_replay_fails_while_bug_present(self, tmp_path, monkeypatch):
        _inject_leak(monkeypatch)
        result = check_trace_invariants(BASE_SPEC, seed=7)
        paths = result.emit_artifacts(str(tmp_path))
        report = replay_artifact(paths[0])
        assert not report.passed


@needs_native
class TestFusedVsSegmented:
    def test_bit_identical_at_stride_one(self):
        violations = fused_vs_segmented({**BASE_SPEC, "n_replicas": 16}, seed=0)
        assert violations == [], [v.describe() for v in violations]

    def test_bit_identical_at_observation_stride_three(self):
        spec = {**BASE_SPEC, "n_replicas": 16, "observe_every": 3}
        violations = fused_vs_segmented(spec, seed=1)
        assert violations == [], [v.describe() for v in violations]

    def test_bit_identical_with_two_threads(self):
        violations = fused_vs_segmented(
            {**BASE_SPEC, "n_replicas": 16}, seed=2, n_threads=2
        )
        assert violations == [], [v.describe() for v in violations]

    def test_bit_identical_with_concentrate_faults(self):
        # fused: the rbb kernel strikes the faults inside one call;
        # segmented: one call per fault-free stretch, faults injected between
        spec = {
            **BASE_SPEC,
            "n_bins": 16,
            "n_replicas": 9,
            "rounds": 40,
            "process": "faulty",
            "adversary": "concentrate",
            "fault_period": 11,
            "observe_every": 3,
            "metrics": "moments",
        }
        violations = fused_vs_segmented(spec, seed=4, n_threads=2)
        assert violations == [], [v.describe() for v in violations]

    def test_dropped_fused_histogram_overflow_is_caught(self, monkeypatch):
        ingest = BatchedLoadHistogramTracker.ingest_fused

        def drop_overflow(self, stats):
            empty = np.zeros_like(stats.hist_overflow)
            ingest(self, dataclasses.replace(stats, hist_overflow=empty))

        monkeypatch.setattr(BatchedLoadHistogramTracker, "ingest_fused", drop_overflow)
        # 256 balls per bin on average: many loads overflow the 0..256 buckets
        spec = {**BASE_SPEC, "n_replicas": 16, "n_balls": 1024}
        violations = fused_vs_segmented(spec, seed=3)
        assert [v.invariant for v in violations] == [
            "fused_equal:histogram.summaries.overflow"
        ]
