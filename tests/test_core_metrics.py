"""Single-replica behaviour of the batched trackers and the observer list.

A single-replica simulator hands its observers a 1-D load vector, which
the batched protocol treats as the ``R == 1`` view; these tests feed 1-D
vectors and check the per-replica results at index 0.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.metrics import (
    BatchedBinEmptyingTracker,
    BatchedCallbackObserver,
    BatchedEmptyBinsTracker,
    BatchedLegitimacyTracker,
    BatchedLoadHistogramTracker,
    BatchedMaxLoadTracker,
    BatchedObserverList,
    BatchedTraceRecorder,
)


def feed(tracker, snapshots):
    """Feed a list of load vectors to a tracker as successive rounds."""
    for t, snapshot in enumerate(snapshots, start=1):
        tracker.observe(t, np.asarray(snapshot, dtype=np.int64))


class TestMaxLoadTracker:
    def test_series_and_window_max(self):
        tracker = BatchedMaxLoadTracker()
        feed(tracker, [[1, 2, 0], [0, 3, 0], [1, 1, 1]])
        assert tracker.as_array()[:, 0].tolist() == [2, 3, 1]
        assert tracker.window_max.tolist() == [3]
        assert tracker.final.tolist() == [1]
        assert tracker.rounds == [1, 2, 3]

    def test_without_series(self):
        tracker = BatchedMaxLoadTracker(record_series=False)
        feed(tracker, [[1, 2], [4, 0]])
        assert tracker.series == []
        assert tracker.window_max.tolist() == [4]
        assert tracker.final.tolist() == [4]

    def test_final_none_before_observation(self):
        assert BatchedMaxLoadTracker().final is None


class TestEmptyBinsTracker:
    def test_counts_and_minimum(self):
        tracker = BatchedEmptyBinsTracker()
        feed(tracker, [[0, 0, 2], [1, 1, 0], [1, 1, 1]])
        assert tracker.as_array()[:, 0].tolist() == [2, 1, 0]
        assert tracker.window_min.tolist() == [0]
        assert tracker.min_fraction.tolist() == [0.0]

    def test_always_at_least(self):
        tracker = BatchedEmptyBinsTracker()
        feed(tracker, [[0, 0, 2, 2], [0, 2, 0, 2]])
        assert tracker.always_at_least(0.25).tolist() == [True]
        assert tracker.always_at_least(0.5).tolist() == [True]
        assert tracker.always_at_least(0.75).tolist() == [False]

    def test_empty_tracker(self):
        tracker = BatchedEmptyBinsTracker()
        assert tracker.min_fraction is None
        assert not tracker.always_at_least().any()


class TestLegitimacyTracker:
    def test_converged_and_stable(self):
        tracker = BatchedLegitimacyTracker(beta=1.0)
        # n = 8 -> threshold = log(8) ~ 2.08
        feed(tracker, [[5, 0, 0, 0, 1, 1, 1, 0], [2, 1, 1, 1, 1, 1, 1, 0], [1] * 8])
        assert tracker.first_legitimate_round.tolist() == [2]
        assert tracker.converged.tolist() == [True]
        assert tracker.stable_after_convergence.tolist() == [True]
        assert tracker.violations.tolist() == [1]

    def test_violation_after_convergence(self):
        tracker = BatchedLegitimacyTracker(beta=1.0)
        feed(tracker, [[1] * 8, [9, 0, 0, 0, 0, 0, 0, 0], [1] * 8])
        assert tracker.first_legitimate_round.tolist() == [1]
        assert tracker.first_violation_after_hit.tolist() == [2]
        assert tracker.stable_after_convergence.tolist() == [False]
        assert tracker.payload().summaries["stable_after_convergence"].tolist() == [0]

    def test_never_converged(self):
        tracker = BatchedLegitimacyTracker(beta=1.0)
        feed(tracker, [[8, 0, 0, 0, 0, 0, 0, 0]])
        assert tracker.converged.tolist() == [False]
        assert tracker.stable_after_convergence.tolist() == [False]
        assert tracker.first_legitimate_round.tolist() == [-1]


class TestLoadHistogramTracker:
    def test_distribution_sums_to_one(self):
        tracker = BatchedLoadHistogramTracker()
        feed(tracker, [[0, 1, 2], [1, 1, 1]])
        assert tracker.distribution()[0].sum() == pytest.approx(1.0)
        # 6 observations total: loads 0,1,2,1,1,1 -> one zero, four ones, one two
        assert tracker.counts[0, :3].tolist() == [1, 4, 1]

    def test_mean_load(self):
        tracker = BatchedLoadHistogramTracker()
        feed(tracker, [[0, 2], [1, 1]])
        assert tracker.mean_load()[0] == pytest.approx(1.0)

    def test_overflow_counted(self):
        tracker = BatchedLoadHistogramTracker(max_tracked_load=2)
        feed(tracker, [[5, 0]])
        assert tracker.overflow.tolist() == [1]
        assert tracker.counts[0, 2] == 1  # clipped into the top bucket

    def test_empty_distribution(self):
        tracker = BatchedLoadHistogramTracker()
        assert tracker.distribution().sum() == 0.0


class TestTraceRecorder:
    def test_records_with_stride(self):
        recorder = BatchedTraceRecorder(stride=2)
        feed(recorder, [[1, 1], [2, 0], [0, 2], [1, 1]])
        assert recorder.snapshot_rounds == [2, 4]
        assert recorder.as_matrix().shape == (2, 1, 2)

    def test_snapshots_are_copies(self):
        recorder = BatchedTraceRecorder()
        loads = np.array([1, 1], dtype=np.int64)
        recorder.observe(1, loads)
        loads[0] = 9
        assert recorder.snapshots[0].tolist() == [[1, 1]]

    def test_invalid_stride(self):
        with pytest.raises(ConfigurationError):
            BatchedTraceRecorder(stride=0)

    def test_empty_matrix(self):
        assert BatchedTraceRecorder().as_matrix().shape == (0, 0, 0)


class TestBinEmptyingTracker:
    def test_first_empty_rounds(self):
        tracker = BatchedBinEmptyingTracker()
        feed(tracker, [[1, 0, 2], [0, 1, 1], [0, 0, 0]])
        assert tracker.all_emptied.tolist() == [True]
        assert tracker.first_empty_round[0].tolist() == [2, 1, 3]
        assert tracker.last_first_empty.tolist() == [3]

    def test_not_all_emptied(self):
        tracker = BatchedBinEmptyingTracker()
        feed(tracker, [[1, 0], [2, 0]])
        assert tracker.all_emptied.tolist() == [False]
        assert tracker.last_first_empty.tolist() == [-1]


class TestObserverList:
    def test_fan_out(self):
        a = BatchedMaxLoadTracker()
        b = BatchedEmptyBinsTracker()
        group = BatchedObserverList([a, b])
        group.observe(1, np.array([0, 3], dtype=np.int64))
        assert a.window_max.tolist() == [3]
        assert b.window_min.tolist() == [1]
        assert len(group) == 2

    def test_callable_wrapped(self):
        calls = []
        group = BatchedObserverList([lambda t, loads: calls.append(t)])
        group.observe(5, np.zeros(2, dtype=np.int64))
        assert calls == [5]

    def test_invalid_observer_rejected(self):
        with pytest.raises(ConfigurationError):
            BatchedObserverList([42])

    def test_coerce_variants(self):
        assert BatchedObserverList.coerce(None).is_empty
        single = BatchedObserverList.coerce(BatchedMaxLoadTracker())
        assert len(single) == 1
        several = BatchedObserverList.coerce(
            [BatchedMaxLoadTracker(), BatchedMaxLoadTracker()]
        )
        assert len(several) == 2
        passthrough = BatchedObserverList.coerce(several)
        assert passthrough is several

    def test_callback_observer(self):
        # a callback sees exactly what the simulator hands over: the 1-D vector
        seen = []
        obs = BatchedCallbackObserver(
            lambda t, loads: seen.append((t, loads.shape, int(loads.sum())))
        )
        obs.observe(3, np.array([1, 2], dtype=np.int64))
        assert seen == [(3, (2,), 3)]

    def test_iteration(self):
        trackers = [BatchedMaxLoadTracker(), BatchedEmptyBinsTracker()]
        group = BatchedObserverList(trackers)
        assert list(group) == trackers
