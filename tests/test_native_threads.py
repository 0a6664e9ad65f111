"""Threaded native kernels and fused in-kernel observation.

The contract under test: the thread count is a pure execution knob — for
any ``n_threads`` the native kernels produce **bit-identical**
trajectories and observation series (replicas own disjoint state and RNG
streams, so the parallelization axis cannot reorder any arithmetic) — and
the fused in-kernel observation path is indistinguishable from the
segmented Python-side observer loop on every registered metric.

Also covered here: concentrate faults struck inside the rbb kernel
against the segmented fault loop, Greedy[1] against the rbb kernel (the
stream reference for the rbb kernel's blocked and lockstep draws and its
sparse rounds), the Greedy[d] kernel's lockstep groups against its
lane-by-lane loop, both kernels' lockstep width in their status, the
``random_uniform`` start thrown in C against its numpy reference, digests
that pin every kernel's streams, legitimacy thresholds beyond int32, the
flag-aware binary cache key, the by-name kernel argument helper,
thread-count resolution precedence, the exact-moments tracker, and the
sweep scheduler's oversubscription guard.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.batched as batched
from repro.adversary import BatchedFaultyProcess, FaultSchedule
from repro.baselines.d_choices import BatchedDChoices
from repro.core.batched import (
    BatchedRepeatedBallsIntoBins,
    Fallback,
    PileFaults,
    make_ensemble_initial,
    one_choice_arrivals,
)
from repro.core.config import DEFAULT_BETA
from repro.core.native import (
    KERNEL_ABI,
    available_cpu_count,
    kernel_args,
    native_available,
    native_status,
    resolve_n_threads,
    uniform_start,
)
from repro.errors import ConfigurationError
from repro.graphs.batched import BatchedConstrainedWalks
from repro.graphs.generators import resolve_topology
from repro.metrics import (
    METRIC_NAMES,
    BatchedLoadHistogramTracker,
    BatchedLoadMomentsTracker,
    FusedSegmentStats,
    build_trackers,
    supports_fused,
)
from repro.parallel.ensemble import EnsembleSpec, run_ensemble
from repro.sweeps import SweepSpec, resume_sweep, run_sweep

needs_native = pytest.mark.skipif(
    not native_available(), reason="native kernel unavailable (no C compiler)"
)
needs_native_walks = pytest.mark.skipif(
    not native_available("walks"),
    reason="native walk kernel unavailable (no C compiler)",
)
needs_native_greedy = pytest.mark.skipif(
    not native_available("greedy_d"),
    reason="native greedy_d kernel unavailable (no C compiler)",
)

THREAD_COUNTS = (1, 2, max(2, available_cpu_count()))

#: Metrics whose trackers ingest in-kernel segment statistics; the rest
#: (trace, bin_emptying) need full load matrices, so their presence in an
#: observer list sends the whole run down the segmented fallback path.
FUSED_METRICS = "max_load,empty_bins,legitimacy,moments,histogram"


def _rbb(n_threads, **kwargs):
    defaults = dict(seed=42, kernel="native", n_threads=n_threads)
    defaults.update(kwargs)
    return BatchedRepeatedBallsIntoBins(96, 33, **defaults)


def _walks(n_threads, **kwargs):
    defaults = dict(seed=42, kernel="native", n_threads=n_threads)
    defaults.update(kwargs)
    return BatchedConstrainedWalks(resolve_topology("cycle:64"), 33, **defaults)


def _greedy(n_threads, **kwargs):
    defaults = dict(seed=42, kernel="native", n_threads=n_threads)
    defaults.update(kwargs)
    return BatchedDChoices(96, 33, d=2, **defaults)


#: Builders of the processes whose native kernel is rbb-shaped (no
#: topology): the fused-equality tests run on each.
RBB_SHAPED = [
    pytest.param(_rbb, id="rbb"),
    pytest.param(_greedy, id="greedy_d", marks=needs_native_greedy),
]


@pytest.fixture
def kernel_calls(monkeypatch):
    """The names of the native kernels called, one entry per call."""
    calls = []
    get_kernel = batched.get_kernel

    def counting_get_kernel(name):
        fn = get_kernel(name)
        if fn is None:
            return None

        def call(*args):
            calls.append(name)
            return fn(*args)

        return call

    monkeypatch.setattr(batched, "get_kernel", counting_get_kernel)
    return calls


def _payloads(spec_metrics, process, run_kwargs):
    """(final loads, metric payload map) for one run."""
    trackers = build_trackers(spec_metrics)
    observers = [tracker for _, tracker in trackers]
    result = process.run(observers=observers, **run_kwargs)
    return result.final_loads, {
        name: tracker.payload() for name, tracker in trackers
    }


def _assert_payloads_equal(a, b, context=""):
    """Every part of every payload is equal: rounds, summaries, series and
    arrays (the histogram's counts live in ``arrays``)."""
    assert set(a) == set(b)
    for name in a:
        pa, pb = a[name], b[name]
        assert np.array_equal(pa.rounds, pb.rounds), (context, name, "rounds")
        for group in ("summaries", "series", "arrays"):
            ga, gb = getattr(pa, group), getattr(pb, group)
            assert set(ga) == set(gb), (context, name, group)
            for key in ga:
                assert np.array_equal(
                    np.asarray(ga[key]), np.asarray(gb[key])
                ), (context, name, group, key)


# ---------------------------------------------------------------------
# Bit-identical trajectories for every thread count
# ---------------------------------------------------------------------
@needs_native
class TestThreadInvarianceRbb:
    @pytest.mark.parametrize("n_threads", THREAD_COUNTS)
    def test_unobserved_trajectories_identical(self, n_threads):
        base = _rbb(1).run(300)
        run = _rbb(n_threads).run(300)
        assert run.kernel == "native"
        assert np.array_equal(run.final_loads, base.final_loads)
        assert np.array_equal(run.max_load_seen, base.max_load_seen)
        assert np.array_equal(
            run.min_empty_bins_seen, base.min_empty_bins_seen
        )
        assert np.array_equal(
            run.first_legitimate_round, base.first_legitimate_round
        )

    @pytest.mark.parametrize("n_threads", THREAD_COUNTS[1:])
    def test_observed_series_identical(self, n_threads):
        metrics = ",".join(METRIC_NAMES)
        kwargs = dict(rounds=200, observe_every=16)
        base_loads, base_payloads = _payloads(metrics, _rbb(1), kwargs)
        loads, payloads = _payloads(metrics, _rbb(n_threads), kwargs)
        assert np.array_equal(loads, base_loads)
        _assert_payloads_equal(base_payloads, payloads, f"threads={n_threads}")

    @pytest.mark.parametrize("n_threads", THREAD_COUNTS[1:])
    def test_stop_when_legitimate_identical(self, n_threads):
        base = _rbb(1).run(3000, stop_when_legitimate=True)
        run = _rbb(n_threads).run(3000, stop_when_legitimate=True)
        assert np.array_equal(run.rounds, base.rounds)
        assert np.array_equal(run.final_loads, base.final_loads)
        assert np.array_equal(
            run.first_legitimate_round, base.first_legitimate_round
        )

    def test_more_threads_than_replicas(self):
        base = _rbb(1).run(100)
        run = _rbb(1000).run(100)  # clamped to R inside the launch
        assert np.array_equal(run.final_loads, base.final_loads)


@needs_native_walks
class TestThreadInvarianceWalks:
    @pytest.mark.parametrize("n_threads", THREAD_COUNTS[1:])
    def test_unobserved_trajectories_identical(self, n_threads):
        base = _walks(1).run(200)
        run = _walks(n_threads).run(200)
        assert run.kernel == "native"
        assert np.array_equal(run.final_loads, base.final_loads)
        assert np.array_equal(run.max_load_seen, base.max_load_seen)

    @pytest.mark.parametrize("n_threads", THREAD_COUNTS[1:])
    def test_observed_series_identical(self, n_threads):
        metrics = ",".join(METRIC_NAMES)
        kwargs = dict(rounds=150, observe_every=7)
        base_loads, base_payloads = _payloads(metrics, _walks(1), kwargs)
        loads, payloads = _payloads(metrics, _walks(n_threads), kwargs)
        assert np.array_equal(loads, base_loads)
        _assert_payloads_equal(base_payloads, payloads, f"threads={n_threads}")

    @pytest.mark.parametrize("n_threads", THREAD_COUNTS[1:])
    def test_stop_when_legitimate_identical(self, n_threads):
        base = _walks(1).run(2000, stop_when_legitimate=True)
        run = _walks(n_threads).run(2000, stop_when_legitimate=True)
        assert np.array_equal(run.rounds, base.rounds)
        assert np.array_equal(run.final_loads, base.final_loads)


# ---------------------------------------------------------------------
# Fused in-kernel observation == segmented Python observation
# ---------------------------------------------------------------------
@needs_native
class TestFusedObservation:
    @pytest.mark.parametrize("build", RBB_SHAPED)
    @pytest.mark.parametrize("observe_every", [1, 7, 16, 1000])
    def test_fused_matches_segmented(self, build, observe_every, monkeypatch):
        kwargs = dict(rounds=120, observe_every=observe_every)
        fused_loads, fused = _payloads(FUSED_METRICS, build(2), kwargs)
        monkeypatch.setenv("REPRO_NATIVE_FUSED", "0")
        seg_loads, segmented = _payloads(FUSED_METRICS, build(2), kwargs)
        assert np.array_equal(fused_loads, seg_loads)
        _assert_payloads_equal(fused, segmented, f"stride={observe_every}")

    @needs_native_walks
    def test_walks_fused_matches_segmented(self, monkeypatch):
        kwargs = dict(rounds=90, observe_every=5)
        fused_loads, fused = _payloads(FUSED_METRICS, _walks(2), kwargs)
        monkeypatch.setenv("REPRO_NATIVE_FUSED", "0")
        seg_loads, segmented = _payloads(FUSED_METRICS, _walks(2), kwargs)
        assert np.array_equal(fused_loads, seg_loads)
        _assert_payloads_equal(fused, segmented, "walks")

    def test_mixed_observer_list_falls_back_identically(self, monkeypatch):
        """A non-fusable tracker in the list disables fusion, not accuracy."""
        metrics = ",".join(METRIC_NAMES)  # includes trace/histogram
        kwargs = dict(rounds=80, observe_every=8)
        mixed_loads, mixed = _payloads(metrics, _rbb(2), kwargs)
        monkeypatch.setenv("REPRO_NATIVE_FUSED", "0")
        seg_loads, segmented = _payloads(metrics, _rbb(2), kwargs)
        assert np.array_equal(mixed_loads, seg_loads)
        _assert_payloads_equal(mixed, segmented, "mixed")

    def test_fused_matches_numpy_kernel(self):
        """The whole fused pipeline agrees with the numpy reference engine."""
        metrics = "max_load,empty_bins,legitimacy,moments"
        kwargs = dict(rounds=80, observe_every=4)

        def run_with(kernel):
            trackers = build_trackers(metrics)
            proc = BatchedRepeatedBallsIntoBins(64, 9, seed=5, kernel=kernel)
            proc.run(observers=[t for _, t in trackers], **kwargs)
            return {name: t.payload() for name, t in trackers}

        # numpy and native draw different streams, so compare *shapes and
        # schema* across kernels and exact values within the native kernel
        native = run_with("native")
        reference = run_with("numpy")
        assert set(native) == set(reference)
        for name in native:
            assert set(native[name].summaries) == set(
                reference[name].summaries
            )
            for key in native[name].summaries:
                assert (
                    np.asarray(native[name].summaries[key]).shape
                    == np.asarray(reference[name].summaries[key]).shape
                )

    def test_fusable_tracker_set(self):
        """Which registered trackers ride the fused fast path.

        The scalar-statistics trackers must stay fusable (losing one
        silently forfeits the fused speedup for every run that requests
        it); the matrix-shaped trackers cannot be reconstructed from
        segment statistics, so they must *not* claim fusion support.
        """
        fusable = set(FUSED_METRICS.split(","))
        for name, tracker in build_trackers(",".join(METRIC_NAMES)):
            assert supports_fused(tracker) == (name in fusable), name


# ---------------------------------------------------------------------
# Fused load histogram == segmented Python histogram
# ---------------------------------------------------------------------
#: Bins (nodes) of the histogram grid: above every cap tested, so an
#: all-in-one pile overflows each of them.
HIST_N = 300


def _all_in_one(kind, n_threads):
    """A 4-replica native process of one kernel, all balls in one bin."""
    R = 4
    common = dict(
        initial=make_ensemble_initial("all_in_one", HIST_N, R),
        seed=11,
        kernel="native",
        n_threads=n_threads,
    )
    if kind == "rbb":
        return BatchedRepeatedBallsIntoBins(HIST_N, R, **common)
    if kind == "greedy_d":
        return BatchedDChoices(HIST_N, R, d=2, **common)
    return BatchedConstrainedWalks(
        resolve_topology(f"cycle:{HIST_N}"), R, **common
    )


@needs_native
class TestFusedHistogram:
    """The kernels' histogram recorder against the tracker's own update.

    Caps 15, 16 and 17 straddle the recorder's local counters for loads
    below 16, cap 0 clips every load, and the strides are every round, an
    uneven stride, and one longer than the run (a single observation, at
    the window end).
    """

    ROUNDS = 40

    @pytest.mark.parametrize("kind", [
        pytest.param("rbb"),
        pytest.param("greedy_d", marks=needs_native_greedy),
        pytest.param("walks", marks=needs_native_walks),
    ])
    @pytest.mark.parametrize("cap", [0, 15, 16, 17, 256])
    @pytest.mark.parametrize("observe_every", [1, 7, 50])
    @pytest.mark.parametrize("n_threads", [1, 2])
    def test_counts_and_overflow_match_segmented(
        self, kind, cap, observe_every, n_threads, kernel_calls, monkeypatch
    ):
        def run():
            tracker = BatchedLoadHistogramTracker(max_tracked_load=cap)
            process = _all_in_one(kind, n_threads)
            result = process.run(
                self.ROUNDS, observers=[tracker], observe_every=observe_every
            )
            return result.final_loads, tracker

        fused_loads, fused = run()
        assert len(kernel_calls) == 1  # the histogram rode the fused path
        monkeypatch.setenv("REPRO_NATIVE_FUSED", "0")
        seg_loads, segmented = run()
        assert len(kernel_calls) == 1 + -(-self.ROUNDS // observe_every)
        assert np.array_equal(fused_loads, seg_loads)
        assert np.array_equal(fused.counts, segmented.counts)
        assert np.array_equal(fused.overflow, segmented.overflow)
        assert fused.rounds_observed == segmented.rounds_observed
        assert (fused.overflow > 0).all()  # the pile exceeds every cap
        assert (fused.counts.sum(axis=1) == fused.rounds_observed * HIST_N).all()

    def test_unequal_caps_fall_back_to_segmented(self, kernel_calls):
        """The kernel fills one set of histogram blocks, so two caps run
        the segmented loop, with each tracker's own counts."""
        small, large = (
            BatchedLoadHistogramTracker(max_tracked_load=cap) for cap in (8, 256)
        )
        _all_in_one("rbb", 1).run(20, observers=[small, large], observe_every=5)
        assert len(kernel_calls) == 4
        assert small.counts.shape[1] == 9 and large.counts.shape[1] == 257
        assert (small.overflow > 0).all()

    def test_fused_ingest_requires_histogram_blocks(self):
        tracker = BatchedLoadHistogramTracker(max_tracked_load=4)
        stats = FusedSegmentStats(
            rounds=np.array([1], dtype=np.int64),
            max_load=np.ones((1, 2), dtype=np.int64),
            empty_bins=np.zeros((1, 2), dtype=np.int64),
            n_bins=8,
        )
        with pytest.raises(ConfigurationError, match="hist_counts"):
            tracker.ingest_fused(stats)

    def test_histogram_block_shapes_are_validated(self):
        def stats(counts, overflow):
            return FusedSegmentStats(
                rounds=np.array([1], dtype=np.int64),
                max_load=np.ones((1, 2), dtype=np.int64),
                empty_bins=np.zeros((1, 2), dtype=np.int64),
                n_bins=8,
                hist_counts=counts,
                hist_overflow=overflow,
            )

        ok = stats(np.zeros((2, 5), np.int64), np.zeros(2, np.int64))
        assert ok.hist_counts.shape == (2, 5)
        with pytest.raises(ConfigurationError, match="together"):
            stats(np.zeros((2, 5), np.int64), None)
        with pytest.raises(ConfigurationError, match="hist_counts"):
            stats(np.zeros((3, 5), np.int64), np.zeros(2, np.int64))
        with pytest.raises(ConfigurationError, match="hist_overflow"):
            stats(np.zeros((2, 5), np.int64), np.zeros(3, np.int64))


@needs_native
class TestFaultyHistogramFusion:
    """Section 4.1's regime: a histogram-observed adversarial ensemble."""

    SPEC = dict(
        process="faulty", adversary="concentrate", fault_period=32,
        n_bins=64, n_replicas=8, rounds=96, metrics="histogram",
        observe_every=8,
    )

    #: At n = 1024 a fault leaves one bin occupied and 32 rounds later at
    #: most 33 are, so the rbb kernel records every period after the first
    #: from its occupied-bin lists (it goes sparse at n / 32 = 32 bins and
    #: dense again above 64).
    @pytest.mark.parametrize("n_threads, n_bins", [
        pytest.param(1, 64, id="1"),
        pytest.param(2, 64, id="2"),
        pytest.param(1, 1024, id="n1024-1"),
        pytest.param(2, 1024, id="n1024-2"),
    ])
    def test_one_kernel_call_per_fault_period(
        self, n_threads, n_bins, kernel_calls, monkeypatch
    ):
        spec = EnsembleSpec(**dict(self.SPEC, n_bins=n_bins))
        fused = run_ensemble(spec, seed=4, kernel="native", n_threads=n_threads)
        # faults strike before rounds 32, 64 and 96, inside the one call
        assert kernel_calls == ["rbb"]
        monkeypatch.setenv("REPRO_NATIVE_FUSED", "0")
        segmented = run_ensemble(
            spec, seed=4, kernel="native", n_threads=n_threads
        )
        # four fault-free stretches: 31, 32 and 32 rounds at stride 8, then
        # 1 round
        assert len(kernel_calls) == 1 + 13
        for field in (
            "final_loads", "max_load_seen", "min_empty_bins_seen",
            "first_legitimate_round",
        ):
            assert np.array_equal(
                getattr(fused, field), getattr(segmented, field)
            ), field
        _assert_payloads_equal(fused.metrics, segmented.metrics, "faulty")
        counts = fused.metrics["histogram"].arrays["counts"]
        assert (counts.sum(axis=1) == 13 * spec.n_bins).all()


# ---------------------------------------------------------------------
# Concentrate faults inside the rbb kernel == the segmented fault loop
# ---------------------------------------------------------------------
def _faults(*rounds):
    return FaultSchedule(explicit_rounds=frozenset(rounds))


#: (n, R, rounds, schedule, metrics, observe_every, start) of the faulty
#: runs.  ``first_round`` faults before round 1 and in consecutive rounds;
#: ``stride`` has a period that is no multiple of the stride; in
#: ``dense_rejoin`` (n = 256, period 700) the rows leave the sparse rounds
#: long before the next fault and the groups rejoin lockstep; R = 7, 9 and
#: 13 run groups of 4 plus a tail.  ``start`` builds the initial
#: configuration: ``uneven`` empties replica 1 and gives replica 4 three
#: balls per bin; ``n_balls`` is forwarded.
FAULT_CASES = [
    pytest.param(
        64, 9, 60, _faults(1, 2, 30), "max_load,legitimacy,histogram", 4, {},
        id="first_round",
    ),
    pytest.param(
        1024, 7, 80, _faults(20, 21, 22, 60), "moments,histogram", 8, {},
        id="consecutive",
    ),
    pytest.param(
        64, 13, 100, FaultSchedule.every(30), "max_load,legitimacy,histogram",
        7, {}, id="stride",
    ),
    pytest.param(
        256, 9, 1500, FaultSchedule.every(700),
        "max_load,legitimacy,histogram", 50, {}, id="dense_rejoin",
    ),
    pytest.param(
        1, 7, 30, FaultSchedule.every(4), "moments,histogram", 3, {}, id="n1",
    ),
    pytest.param(3, 13, 40, FaultSchedule.every(3), None, 1, {}, id="n3"),
    pytest.param(
        2048, 9, 120, FaultSchedule.every(50),
        "max_load,legitimacy,histogram", 16, {}, id="n2048",
    ),
    pytest.param(
        64, 7, 70, FaultSchedule.every(20), "moments,histogram", 6,
        {"uneven": True}, id="uneven",
    ),
    pytest.param(
        1024, 13, 130, FaultSchedule.every(40),
        "max_load,legitimacy,histogram", 10, {"n_balls": 100}, id="n_balls",
    ),
    pytest.param(
        64, 9, 96, FaultSchedule.every(32), None, 1, {}, id="unobserved",
    ),
]


def _assert_faulty_equal(a, b):
    """Every field of two :class:`BatchedFaultyResult` is equal."""
    assert a.fault_rounds == b.fault_rounds
    for field in (
        "recovery_times", "first_legitimate_round", "max_load_seen",
        "min_empty_bins_seen", "final_loads",
    ):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field
    assert a.kernel == b.kernel == "native"


@needs_native
class TestFaultsInKernel:
    """A concentrate fault is fixed by its pile bins, so the rbb kernel
    strikes a whole window's faults itself, in one call.  The reference is
    the segmented loop (one call per fault-free stretch, each fault through
    ``inject_loads``), which ``REPRO_NATIVE_FUSED=0`` forces."""

    @staticmethod
    def _run(n, R, rounds, schedule, metrics, observe_every, start, **kwargs):
        if start.get("uneven"):
            initial = make_ensemble_initial("balanced", n, R)
            initial[1] = 0
            initial[4] = 3
            kwargs["initial"] = initial
        trackers = build_trackers(metrics)
        faulty = BatchedFaultyProcess(
            n, R, schedule=schedule, kernel="native",
            n_balls=start.get("n_balls"), **kwargs,
        )
        result = faulty.run(
            rounds, observers=[t for _, t in trackers] or None,
            observe_every=observe_every,
        )
        return result, {name: t.payload() for name, t in trackers}

    @pytest.mark.parametrize("n_threads", [1, 2])
    @pytest.mark.parametrize(
        "n, R, rounds, schedule, metrics, observe_every, start", FAULT_CASES
    )
    def test_one_call_matches_segmented(
        self, n, R, rounds, schedule, metrics, observe_every, start, n_threads,
        kernel_calls, monkeypatch,
    ):
        case = (n, R, rounds, schedule, metrics, observe_every, start)
        in_kernel, in_kernel_payloads = self._run(
            *case, seed=7, n_threads=n_threads
        )
        assert kernel_calls == ["rbb"]
        monkeypatch.setenv("REPRO_NATIVE_FUSED", "0")
        segmented, segmented_payloads = self._run(
            *case, seed=7, n_threads=n_threads
        )
        # at least one call for the stretch after each fault
        assert len(kernel_calls) >= 1 + len(segmented.fault_rounds)
        _assert_faulty_equal(in_kernel, segmented)
        _assert_payloads_equal(in_kernel_payloads, segmented_payloads, "faults")
        assert in_kernel.fault_rounds  # the adversary struck
        balls = in_kernel.final_loads.sum(axis=1)
        assert (in_kernel.max_load_seen >= balls).all()  # every pile counted
        if n == 256:
            assert (in_kernel.recovery_times >= 0).any()

    @pytest.mark.parametrize("n_threads", [1, 2])
    def test_shared_generator_runs_segmented(
        self, n_threads, kernel_calls, monkeypatch
    ):
        """With one ``Generator`` for adversary and process, the process's
        first kernel call draws the native states from the adversary's
        stream, between two faults' pile bins, so the faults stay between
        calls."""
        def run():
            return self._run(
                64, 9, 70, FaultSchedule.every(20), "histogram", 5, {},
                seed=np.random.default_rng(11), n_threads=n_threads,
            )

        shared, shared_payloads = run()
        assert kernel_calls == ["rbb"] * 4
        monkeypatch.setenv("REPRO_NATIVE_FUSED", "0")
        segmented, segmented_payloads = run()
        _assert_faulty_equal(shared, segmented)
        _assert_payloads_equal(shared_payloads, segmented_payloads, "shared")

    def _process(self, **kwargs):
        return BatchedRepeatedBallsIntoBins(
            16, 4, seed=1, kernel="native", **kwargs
        )

    @pytest.mark.parametrize("rounds_at, bins, reason", [
        ([2, 5], np.zeros((2, 4), dtype=float), "integers, got float64"),
        ([2, 5], np.zeros((2, 3), dtype=int), r"shape \(2, 3\), expected \(2, 4\)"),
        ([2, 5], np.full((2, 4), -1), r"lie in \[0, 16\)"),
        ([5, 2], np.zeros((2, 4), dtype=int), "increase strictly"),
        ([2, 2], np.zeros((2, 4), dtype=int), "increase strictly"),
        ([2, 8], np.zeros((2, 4), dtype=int), r"within \[0, 8\)"),
        ([2.0, 5.0], np.zeros((2, 4), dtype=int), "vector of integers"),
    ])
    def test_bad_piles_refused_before_any_round(self, rounds_at, bins, reason):
        process = self._process()
        before = process.loads.copy()
        with pytest.raises(ConfigurationError, match=reason):
            process.advance_window(8, piles=PileFaults(np.asarray(rounds_at), bins))
        assert np.array_equal(process.loads, before)
        assert process.rounds_completed.tolist() == [0] * 4

    def test_window_the_kernel_cannot_take_refused(self, monkeypatch):
        piles = PileFaults(np.array([2]), np.zeros((1, 4), dtype=int))
        with pytest.raises(ConfigurationError, match="early stop"):
            self._process().advance_window(
                8, stop_when_legitimate=True, piles=piles
            )
        frozen = self._process()
        frozen.deactivate(np.array([False, True, False, False]))
        assert not frozen.takes_piles(8)
        numpy = BatchedRepeatedBallsIntoBins(16, 4, seed=1, kernel="numpy")
        assert not numpy.takes_piles(8)
        with pytest.raises(ConfigurationError, match="pile faults need"):
            numpy.advance_window(8, piles=piles)
        assert not BatchedDChoices(16, 4, d=2, seed=1).takes_piles(8)
        assert self._process().takes_piles(8, build_trackers("histogram")[0][1])
        assert not self._process().takes_piles(8, build_trackers("trace")[0][1])
        monkeypatch.setenv("REPRO_NATIVE_FUSED", "0")
        assert not self._process().takes_piles(8)


# ---------------------------------------------------------------------
# The window planner: each fallback named on the plan that ran
# ---------------------------------------------------------------------
class _NoNativeKernel(BatchedRepeatedBallsIntoBins):
    """rbb that names no compiled kernel: its numpy rounds only."""

    native_kernel = None


def _pile_start(**kwargs):
    """64 balls in one of 64 bins, 4 replicas: no replica turns legitimate
    within 8 rounds, so an early stop freezes none."""
    initial = make_ensemble_initial("all_in_one", 64, 4)
    return BatchedRepeatedBallsIntoBins(64, 4, initial=initial, seed=1, **kwargs)


def _window(process, rounds=8, observers="max_load", **kwargs):
    """The plan an 8-round window observed every 2 rounds acted on: one
    fused call, or 4 segmented ones."""
    if isinstance(observers, str):
        observers = [tracker for _, tracker in build_trackers(observers)]
    return process.advance_window(
        rounds, observers=observers, observe_every=2, **kwargs
    ).plan


def _fault_run(**kwargs):
    """The plan an 8-round fault run, struck before rounds 3 and 6, acted
    on: one call with the faults inside it, or one call per fault-free
    stretch (3)."""
    kwargs.setdefault("seed", 1)
    faulty = BatchedFaultyProcess(64, 4, schedule=FaultSchedule.every(3), **kwargs)
    return faulty.run(8).plan


def _not_loaded(monkeypatch):
    process = _pile_start()
    monkeypatch.setattr(batched, "get_kernel", lambda name: None)
    return _window(process)


def _too_large(monkeypatch):
    process = BatchedConstrainedWalks(resolve_topology("cycle:64"), 4, seed=1)
    monkeypatch.setattr(process, "_native_supported", lambda: False)
    return _window(process)


def _fusion_off(monkeypatch):
    monkeypatch.setenv("REPRO_NATIVE_FUSED", "0")
    return _window(_pile_start())


def _frozen(monkeypatch):
    process = _pile_start()
    process.deactivate(np.array([False, True, False, False]))
    return _window(process)


def _unequal_caps(monkeypatch):
    caps = (8, 256)
    observers = [BatchedLoadHistogramTracker(max_tracked_load=c) for c in caps]
    return _window(_pile_start(), observers=observers)


#: (the fallback, or None for none; run(monkeypatch) -> the plan that ran;
#: the kernel calls the run made).
WINDOW_PLANS = [
    pytest.param(None, lambda mp: _window(_pile_start()), ["rbb"], id="fused"),
    pytest.param(None, lambda mp: _fault_run(), ["rbb"], id="faults_in_kernel"),
    pytest.param(
        Fallback.NUMPY_REQUESTED, lambda mp: _window(_pile_start(kernel="numpy")),
        [], id="numpy_requested",
    ),
    pytest.param(
        Fallback.NO_NATIVE_KERNEL, lambda mp: _window(_NoNativeKernel(64, 4, seed=1)),
        [], id="no_native_kernel",
    ),
    pytest.param(Fallback.KERNEL_NOT_LOADED, _not_loaded, [], id="not_loaded"),
    pytest.param(
        Fallback.ARGUMENTS_TOO_LARGE, _too_large, [], id="too_large",
        marks=needs_native_walks,
    ),
    pytest.param(
        Fallback.EMPTY_WINDOW, lambda mp: _window(_pile_start(), rounds=0), [],
        id="empty",
    ),
    pytest.param(
        Fallback.EARLY_STOP,
        lambda mp: _window(_pile_start(), stop_when_legitimate=True),
        ["rbb"] * 4, id="early_stop",
    ),
    pytest.param(Fallback.FUSION_OFF, _fusion_off, ["rbb"] * 4, id="fusion_off"),
    pytest.param(Fallback.FROZEN_REPLICA, _frozen, ["rbb"] * 4, id="frozen"),
    pytest.param(
        Fallback.MIXED_HISTOGRAM_CAPS, _unequal_caps, ["rbb"] * 4, id="caps",
    ),
    pytest.param(
        Fallback.UNFUSABLE_OBSERVER,
        lambda mp: _window(_pile_start(), observers="trace"),
        ["rbb"] * 4, id="unfusable",
    ),
    pytest.param(
        Fallback.NO_KERNEL_PILES,
        lambda mp: _fault_run(process=BatchedDChoices(64, 4, d=2, seed=1)),
        ["greedy_d"] * 3, id="no_kernel_piles", marks=needs_native_greedy,
    ),
    pytest.param(
        Fallback.NOT_CONCENTRATE, lambda mp: _fault_run(adversary="shuffle"),
        ["rbb"] * 3, id="not_concentrate",
    ),
    pytest.param(
        Fallback.SHARED_GENERATOR,
        lambda mp: _fault_run(seed=np.random.default_rng(1)),
        ["rbb"] * 3, id="shared_generator",
    ),
]

#: The fallbacks that send a window to the numpy kernel.
NUMPY_FALLBACKS = {
    Fallback.NUMPY_REQUESTED,
    Fallback.NO_NATIVE_KERNEL,
    Fallback.KERNEL_NOT_LOADED,
    Fallback.ARGUMENTS_TOO_LARGE,
}


def test_every_fallback_is_a_case():
    named = {param.values[0] for param in WINDOW_PLANS}
    assert named == {None, *Fallback}


@needs_native
@pytest.mark.parametrize("reason, run, calls", WINDOW_PLANS)
def test_the_plan_that_ran_names_its_fallback(
    reason, run, calls, kernel_calls, monkeypatch
):
    """Each fallback, triggered alone, is the one reason on the plan the
    window or the fault run acted on, and the kernel calls show the path
    it took: none on numpy, one fused call, or one per segment."""
    plan = run(monkeypatch)
    assert kernel_calls == calls
    if reason is None:
        assert plan.fused and plan.fallbacks == () and plan.kernel == "native"
        return
    assert plan.fallbacks == (reason,) and not plan.fused
    assert plan.kernel == ("numpy" if reason in NUMPY_FALLBACKS else "native")


# ---------------------------------------------------------------------
# Greedy[1] == rbb: the lane-by-lane stream reference
# ---------------------------------------------------------------------
#: (n, R, rounds, start, options) of the Greedy[1]-vs-rbb runs.  Balanced
#: starts move n balls in the first round, so the rounds at n = 1000 and
#: 1024 span several arrival blocks of the rbb kernel.  At n = 4190212,
#: 2**32 mod n = 4190208, so about one lane in 1 000 is rejected: some
#: 4 000 in the first round.  The ``frozen`` option deactivates one
#: replica before the run; ``empty`` starts one replica with no balls.
#:
#: Where the build carries the rbb kernel's lockstep path
#: (``[lockstep=4]`` in ``native_status("rbb")``), replicas run in groups
#: of 4 while n <= 65536.  ``groups`` runs two groups and a tail replica
#: over rounds that span blocks; at n = 65026, 2**32 mod n = 65022, so
#: lockstep blocks reject lanes; a member with no balls draws no words
#: while the others draw their whole rounds; n = 65537 is just above the
#: row budget, so its group runs replica by replica; and ``groups_fused``
#: observes three groups, histogram included.
#: ``uneven`` starts row 0 balanced among rows of n / 8 balls, so its
#: rounds span blocks past the others' one and the masked tail runs on.
#: ``pow2_n2`` and ``pow2_n65536`` run groups at the smallest and the
#: largest power of two a group takes (a shift by 31 and by 16), and
#: ``group_n1`` a group at n = 1, which maps its lanes by the multiply.
#:
#: The rbb kernel runs a row's round over a list of its occupied bins
#: while at most max(1, n / 32) of them are occupied, until more than
#: twice that many are.  ``sparse_few`` holds 64 balls in 4096 bins, so its
#: rows never leave the list; ``sparse_groups`` (two groups and a tail)
#: starts every row sparse and spreads it past the exit bound;
#: ``sparse_mixed`` starts rows 1 and 3 balanced (option ``balanced``), so
#: its group runs alone until the two all-in-one rows turn dense and then
#: rejoins lockstep; ``sparse_fused`` records moments and the histogram
#: from the lists; ``sparse_stop`` stops sparse rows early.
D1_CASES = [
    pytest.param(1, 3, 20, "balanced", {}, id="n1"),
    pytest.param(16, 6, 40, "balanced", {}, id="n16"),
    pytest.param(1000, 2, 30, "balanced", {}, id="n1000"),
    pytest.param(1024, 2, 30, "balanced", {}, id="n1024"),
    pytest.param(4190212, 1, 2, "balanced", {}, id="rejections"),
    pytest.param(300, 7, 50, "all_in_one", {}, id="R7"),
    pytest.param(
        64, 5, 500, "all_in_one", {"stop_when_legitimate": True}, id="stop"
    ),
    pytest.param(64, 5, 100, "all_in_one", {"frozen": 2}, id="frozen"),
    pytest.param(
        300, 4, 40, "all_in_one",
        {"metrics": FUSED_METRICS, "observe_every": 7}, id="fused",
    ),
    pytest.param(1024, 9, 30, "balanced", {}, id="groups"),
    pytest.param(65026, 9, 40, "balanced", {}, id="group_rejections"),
    pytest.param(100, 5, 30, "balanced", {"empty": 2}, id="group_empty"),
    pytest.param(65537, 4, 3, "balanced", {}, id="group_budget"),
    pytest.param(
        300, 12, 40, "all_in_one",
        {"metrics": FUSED_METRICS, "observe_every": 7}, id="groups_fused",
    ),
    pytest.param(
        4096, 5, 30, "random_uniform", {"n_balls": 512, "balanced": (0,)},
        id="uneven",
    ),
    pytest.param(2, 9, 40, "balanced", {}, id="pow2_n2"),
    pytest.param(65536, 9, 4, "balanced", {}, id="pow2_n65536"),
    pytest.param(1, 9, 20, "balanced", {}, id="group_n1"),
    pytest.param(4096, 5, 60, "balanced", {"n_balls": 64}, id="sparse_few"),
    pytest.param(2048, 9, 200, "all_in_one", {}, id="sparse_groups"),
    pytest.param(
        1024, 4, 150, "all_in_one", {"balanced": (1, 3)}, id="sparse_mixed"
    ),
    pytest.param(
        1024, 8, 100, "all_in_one",
        {"metrics": FUSED_METRICS, "observe_every": 7}, id="sparse_fused",
    ),
    pytest.param(
        1024, 5, 300, "all_in_one",
        {"n_balls": 64, "stop_when_legitimate": True}, id="sparse_stop",
    ),
]


def _assert_greedy_one_matches_rbb(initial, rounds, n_threads, options):
    """Run rbb and Greedy[1] from the same (R, n) start and seed, and
    assert equal result fields and metric payloads; returns rbb's result."""
    R, n = initial.shape

    def run(build):
        process = build(
            initial=initial, seed=options.get("seed", 5), kernel="native",
            n_threads=n_threads,
        )
        if "frozen" in options:
            process.deactivate(np.arange(R) == options["frozen"])
        trackers = build_trackers(options.get("metrics"))
        result = process.run(
            rounds,
            stop_when_legitimate=options.get("stop_when_legitimate", False),
            observers=[tracker for _, tracker in trackers],
            observe_every=options.get("observe_every", 1),
        )
        assert result.kernel == "native"
        return result, {name: t.payload() for name, t in trackers}

    plain, plain_payloads = run(
        lambda **kw: BatchedRepeatedBallsIntoBins(n, R, **kw)
    )
    greedy, greedy_payloads = run(lambda **kw: BatchedDChoices(n, R, d=1, **kw))
    for field in (
        "final_loads", "rounds", "max_load_seen", "min_empty_bins_seen",
        "first_legitimate_round",
    ):
        assert np.array_equal(
            getattr(greedy, field), getattr(plain, field)
        ), field
    _assert_payloads_equal(greedy_payloads, plain_payloads, "d=1")
    return plain


#: Row starts the rbb lockstep property mixes: rows with n, about 0.63 n
#: and about n / 10 occupied bins are dense but need different numbers of
#: blocks, and an all-in-one row stays sparse for its first rounds.
_MIXED_STARTS = ("balanced", "random_uniform", "tenth", "all_in_one")


def _mixed_start(kinds, n, seed):
    """One row per kind: ``tenth`` throws max(1, n // 10) balls at random."""
    rows = []
    for r, kind in enumerate(kinds):
        balls = max(1, n // 10) if kind == "tenth" else None
        start = "random_uniform" if kind == "tenth" else kind
        rows.append(
            make_ensemble_initial(start, n, 1, n_balls=balls, seed=seed + r)[0]
        )
    return np.ascontiguousarray(rows, dtype=np.int32)


@needs_native
@needs_native_greedy
class TestGreedyOneMatchesRbb:
    """Greedy[1] consumes each replica's stream lane by lane, as the
    stream is defined; the rbb kernel draws whole blocks of words.  Their
    trajectories coincide only if the blocks never over-draw and keep
    every accepted lane in order."""

    @pytest.mark.parametrize("n_threads", [1, 2])
    @pytest.mark.parametrize("n, R, rounds, start, options", D1_CASES)
    def test_d1_matches_native_rbb(
        self, n, R, rounds, start, options, n_threads, kernel_calls
    ):
        initial = make_ensemble_initial(
            start, n, R, n_balls=options.get("n_balls"), seed=0
        )
        if "empty" in options:
            initial[options["empty"]] = 0
        if "balanced" in options:
            initial[list(options["balanced"])] = 1
        plain = _assert_greedy_one_matches_rbb(
            initial, rounds, n_threads, options
        )
        assert kernel_calls == ["rbb", "greedy_d"]  # one call each, also fused
        if "frozen" in options:
            assert plain.rounds[options["frozen"]] == 0
        if "stop_when_legitimate" in options:
            assert len(set(plain.rounds.tolist())) > 1  # replicas stopped apart
        if "empty" in options:
            assert not plain.final_loads[options["empty"]].any()

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.one_of(
            st.integers(min_value=1, max_value=16).map(lambda k: 2**k),
            st.integers(min_value=1, max_value=66_000),
        ),
        kinds=st.lists(
            st.sampled_from(_MIXED_STARTS), min_size=4, max_size=12
        ),
        rounds=st.integers(min_value=1, max_value=40),
        observe_every=st.integers(min_value=1, max_value=8),
        n_threads=st.sampled_from([1, 2]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_property_groups_match_lane_by_lane(
        self, n, kinds, rounds, observe_every, n_threads, seed
    ):
        """R = len(kinds) in 4..12: rbb's groups (rows 0 to 4 * (R // 4)),
        whose members' rounds span different numbers of blocks, and its
        tail equal Greedy[1]'s lane-by-lane run, fused payloads included."""
        _assert_greedy_one_matches_rbb(
            _mixed_start(kinds, n, seed), rounds, n_threads,
            {"seed": seed, "metrics": FUSED_METRICS,
             "observe_every": observe_every},
        )


@needs_native
def test_rbb_status_reports_lockstep_width():
    """The rbb kernel's status ends with the replicas per lockstep group:
    4 where the build's vectors hold four 64-bit lanes, else 1."""
    assert re.search(r" \[lockstep=[14]\]$", native_status("rbb"))


def _greedy_first_three(n, R, d, rounds, start, n_threads, options):
    """Replicas 0-2 of a native Greedy[d] run of R replicas: its result
    fields and its metric payloads, cut to those replicas.  Row r starts as
    row r of a 12-replica start, so every R starts replicas 0-2 alike."""
    initial = make_ensemble_initial(start, n, 12, seed=options.get("rows", 0))[:R]
    if "empty" in options:
        initial[options["empty"]] = 0
    if "balanced" in options:
        initial[list(options["balanced"])] = 1
    process = BatchedDChoices(
        n, R, d=d, initial=initial, seed=options.get("seed", 5),
        kernel="native", n_threads=n_threads,
    )
    if "frozen" in options:
        process.deactivate(np.arange(R) == options["frozen"])
    trackers = build_trackers(options.get("metrics"))
    result = process.run(
        rounds,
        beta=options.get("beta", DEFAULT_BETA),
        stop_when_legitimate=options.get("stop_when_legitimate", False),
        observers=[tracker for _, tracker in trackers],
        observe_every=options.get("observe_every", 1),
    )
    assert result.kernel == "native"
    fields = {
        field: getattr(result, field)[:3]
        for field in (
            "final_loads", "rounds", "max_load_seen", "min_empty_bins_seen",
            "first_legitimate_round",
        )
    }
    payloads = {}
    for name, tracker in trackers:
        payload = tracker.payload()
        payloads[name] = (
            payload.rounds,
            {key: value[:3] for key, value in payload.summaries.items()},
            {key: value[:, :3] for key, value in payload.series.items()},
            {key: value[:3] for key, value in payload.arrays.items()},
        )
    return fields, payloads


def _assert_greedy_groups_match_lanes(n, R, d, rounds, start, n_threads,
                                      options=None):
    """Replicas 0-2 of an R = 3 run are tail replicas, run lane by lane;
    in an R >= 4 run they are members of the first group.  A replica's
    stream depends only on (seed, r), so the two must agree exactly: every
    integer the kernel returns, and every summary computed from them."""
    options = options or {}
    lanes_fields, lanes_payloads = _greedy_first_three(
        n, 3, d, rounds, start, n_threads, options
    )
    group_fields, group_payloads = _greedy_first_three(
        n, R, d, rounds, start, n_threads, options
    )
    for field, value in lanes_fields.items():
        assert np.array_equal(group_fields[field], value), field
    assert set(group_payloads) == set(lanes_payloads)
    for name, (obs_rounds, *groups) in lanes_payloads.items():
        assert np.array_equal(group_payloads[name][0], obs_rounds), name
        for got, want in zip(group_payloads[name][1:], groups):
            assert set(got) == set(want), name
            for key in want:
                assert np.array_equal(got[key], want[key]), (name, key)
    return group_fields


#: Cases of the Greedy[d] kernel's lockstep groups, run where the build
#: carries them (``[lockstep=4]`` in ``native_status("greedy_d")``); groups
#: run at d >= 2 and n <= 65536.  At n = 65026, 2**32 mod n = 65022, so
#: about one lane in 66 000 is rejected, some inside lockstep blocks.  From
#: all-in-one at d = 3 every member's first round takes 3 candidates from 2
#: words, so its block ends in a surplus high lane.  A member with no balls
#: (option ``empty``) draws no words while the others draw their rounds.  A
#: frozen member (option ``frozen``) and members stopped early run the
#: group's rounds alone; at beta = 0.45 (threshold 2) the stop case's
#: replicas stop about 100 rounds in and apart, which it checks, so the
#: group runs in lockstep first and alone after.  ``blocks`` and ``d5`` throw more
#: candidates per round than a block holds, so balls straddle two blocks
#: (d = 5 places through the loop that takes any d); n = 65537 is just
#: above the group budget.
#: ``uneven`` starts row 0 balanced among all-in-one rows (option
#: ``balanced``), so its rounds span blocks past the others' one and the
#: masked tail runs on.
#: ``pow2_n2`` and ``pow2_n65536`` run groups at the smallest and the
#: largest power of two a group takes (a shift by 31 and by 16), and
#: ``group_n1`` a group at n = 1, which maps its lanes by the multiply.
GROUP_CASES = [
    pytest.param(65026, 2, 4, "balanced", {}, id="group_rejections"),
    pytest.param(64, 3, 30, "all_in_one", {}, id="odd_surplus"),
    pytest.param(100, 2, 30, "balanced", {"empty": 1}, id="group_empty"),
    pytest.param(100, 4, 30, "balanced", {"frozen": 1}, id="frozen"),
    pytest.param(
        100, 2, 300, "all_in_one",
        {"stop_when_legitimate": True, "beta": 0.45}, id="stop",
    ),
    pytest.param(
        300, 3, 60, "all_in_one",
        {"metrics": FUSED_METRICS, "observe_every": 7}, id="fused",
    ),
    pytest.param(1024, 3, 20, "random_uniform", {"rows": 3}, id="blocks"),
    pytest.param(1024, 5, 20, "balanced", {}, id="d5"),
    pytest.param(65537, 2, 2, "balanced", {}, id="group_budget"),
    pytest.param(4096, 2, 20, "all_in_one", {"balanced": (0,)}, id="uneven"),
    pytest.param(2, 3, 30, "balanced", {}, id="pow2_n2"),
    pytest.param(65536, 2, 3, "balanced", {}, id="pow2_n65536"),
    pytest.param(1, 2, 20, "balanced", {}, id="group_n1"),
]


@needs_native_greedy
class TestGreedyGroupsMatchLanes:
    """The lane-by-lane loop defines the Greedy[d] stream; a lockstep
    group draws whole words for four replicas at once and places each
    block's balls by storing every candidate back.  Both must give every
    replica the same trajectory."""

    @pytest.mark.parametrize("n_threads", [1, 2])
    @pytest.mark.parametrize("R", [4, 9])
    @pytest.mark.parametrize("n, d, rounds, start, options", GROUP_CASES)
    def test_groups_match_lane_by_lane(
        self, n, d, rounds, start, options, R, n_threads
    ):
        fields = _assert_greedy_groups_match_lanes(
            n, R, d, rounds, start, n_threads, options
        )
        if "stop_when_legitimate" in options:
            assert len(set(fields["rounds"].tolist())) > 1
        if "frozen" in options:
            assert fields["rounds"][options["frozen"]] == 0
        if "empty" in options:
            assert not fields["final_loads"][options["empty"]].any()

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=1100),
        R=st.integers(min_value=4, max_value=12),
        d=st.integers(min_value=2, max_value=5),
        rounds=st.integers(min_value=1, max_value=30),
        start=st.sampled_from(["balanced", "all_in_one", "random_uniform"]),
        n_threads=st.sampled_from([1, 2]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_property_groups_match_lane_by_lane(
        self, n, R, d, rounds, start, n_threads, seed
    ):
        _assert_greedy_groups_match_lanes(
            n, R, d, rounds, start, n_threads, {"rows": seed, "seed": seed}
        )


@needs_native_greedy
def test_greedy_status_reports_lockstep_width():
    """The Greedy[d] kernel's status ends with the replicas per lockstep
    group, the same width as the rbb kernel's: both take it from the
    shared header."""
    width = re.search(r" \[lockstep=([14])\]$", native_status("greedy_d"))
    assert width
    if native_available("rbb"):
        assert native_status("rbb").endswith(f"[lockstep={width.group(1)}]")


# ---------------------------------------------------------------------
# The random_uniform start, thrown in C from numpy's stream
# ---------------------------------------------------------------------
#: A numpy reference that draws more balls than this at once takes
#: hundreds of MB (int64 destinations, their offsets, the counts).
_START_BALLS_CAP = 2**22

#: (n, R, m) over n in {1, 2, 3, 7, 16, 100, 1000, 1024, 65026, 65537,
#: 2**20 + 7} (65026 and 2**20 + 7 reject lanes; n = 1 draws nothing),
#: R in {1, 3, 8} and m in {0, 1, n, 2n + 3}, up to the cap above.
_START_GRID = [
    pytest.param(n, R, m, id=f"n{n}-R{R}-m{m}")
    for n in (1, 2, 3, 7, 16, 100, 1000, 1024, 65026, 65537, 2**20 + 7)
    for R in (1, 3, 8)
    for m in (0, 1, n, 2 * n + 3)
    if R * m <= _START_BALLS_CAP
]

needs_start = pytest.mark.skipif(
    uniform_start() is None, reason="no kernel library (no C compiler)"
)


def _reference_start(rng, n, R, m):
    """The numpy reference: one flat draw of every replica's throws."""
    return one_choice_arrivals(
        rng, np.arange(R, dtype=np.int64) * n, np.full(R, m, np.int64), R, n
    )


@needs_start
class TestUniformStart:
    """``repro_uniform_start`` draws ``Generator.integers(0, n)``'s balls
    from the generator's own bit generator, so its block and the
    generator's state after it equal the numpy reference's."""

    @pytest.mark.parametrize("n, R, m", _START_GRID)
    def test_equals_the_numpy_reference(self, n, R, m):
        for seed in (0, 1, 2024):
            want_rng = np.random.default_rng(seed)
            want = _reference_start(want_rng, n, R, m)
            block = make_ensemble_initial(
                "random_uniform", n, R, n_balls=m, seed=seed
            )
            assert block.dtype == np.int32
            assert block.flags.c_contiguous
            assert np.array_equal(block, want)
            rng = np.random.default_rng(seed)
            loads = np.full((R, n), -1, dtype=np.int32)
            with rng.bit_generator.lock:
                uniform_start()(
                    rng.bit_generator.ctypes.bit_generator,
                    loads.ctypes.data_as(ctypes.POINTER(ctypes.c_int32)),
                    R, n, m,
                )
            assert np.array_equal(loads, want)
            assert rng.bit_generator.state == want_rng.bit_generator.state

    def test_fallback_gives_the_same_block(self, monkeypatch):
        block = make_ensemble_initial("random_uniform", 100, 3, seed=5)
        monkeypatch.setattr(batched, "uniform_start", lambda: None)
        fallback = make_ensemble_initial("random_uniform", 100, 3, seed=5)
        assert fallback.dtype == np.int32
        assert np.array_equal(fallback, block)

    @pytest.mark.parametrize("n, m", [(4, 2**31 - 1), (2**31, 1)])
    def test_refuses_a_start_int32_cannot_hold(self, monkeypatch, n, m):
        def drawn(*args, **kwargs):
            raise AssertionError("a refused start was drawn")

        monkeypatch.setattr(batched, "uniform_start", drawn)
        monkeypatch.setattr(batched, "one_choice_arrivals", drawn)
        with pytest.raises(ConfigurationError, match="int32"):
            make_ensemble_initial("random_uniform", n, 2, n_balls=m, seed=0)


# ---------------------------------------------------------------------
# Pinned native streams
# ---------------------------------------------------------------------
def _pinned_run(kind):
    """A single-thread native run: one per kernel, plus an rbb run whose
    rounds reject lanes, one whose rows enter and leave the rbb kernel's
    sparse rounds, a Greedy[3] run of one lockstep group and a 3-replica
    tail, and a Greedy[2] run of mostly-empty rows (64 balls in 4096
    bins; one group and a 2-replica tail).  Each starts deterministically
    (numpy ``Generator`` streams may change between numpy versions; the
    ``SeedSequence`` hashing that seeds the native streams does not)."""
    def start(initial, n, R, n_balls=None):
        return dict(
            initial=make_ensemble_initial(initial, n, R, n_balls=n_balls),
            seed=2024, kernel="native", n_threads=1,
        )

    if kind == "rbb":
        return BatchedRepeatedBallsIntoBins(
            1000, 4, **start("all_in_one", 1000, 4)
        ).run(1500)
    if kind == "rbb_sparse":
        return BatchedRepeatedBallsIntoBins(
            4096, 4, **start("all_in_one", 4096, 4)
        ).run(400)
    if kind == "rbb_rejections":
        return BatchedRepeatedBallsIntoBins(
            4190212, 1, **start("balanced", 4190212, 1)
        ).run(2)
    if kind == "greedy_d":
        return BatchedDChoices(
            1000, 4, d=2, **start("balanced", 1000, 4)
        ).run(300)
    if kind == "greedy_d3":
        return BatchedDChoices(
            300, 7, d=3, **start("all_in_one", 300, 7)
        ).run(600)
    if kind == "greedy_sparse":
        return BatchedDChoices(
            4096, 6, d=2, **start("balanced", 4096, 6, n_balls=64)
        ).run(200)
    return BatchedConstrainedWalks(
        resolve_topology("cycle:100"), 4, **start("all_in_one", 100, 4)
    ).run(400)


#: SHA-256 of each pinned run's final loads and window vectors.  A change
#: to any kernel's stream, or to the seeding of the native states, moves
#: one of them; so does a change that moves rbb and Greedy[1] together,
#: which the Greedy[1] cross-check cannot see.
PINNED_DIGESTS = {
    "rbb": "d304cae4c92260b27e4f6b94d1146453e2776d275abc342198c097d0d6caa292",
    "rbb_rejections":
        "2aa1e8c8dfdb96fe98c7f47e32d660271d2530e4a9c95d475bdd10a6eeb56784",
    "rbb_sparse":
        "cdfd93ed00c34c18d1bf27a560793e5831fef2345ba61f0addbb6abf62979101",
    "greedy_d":
        "5a57d9afda5e952a1ee8ec9c2c414ff7919666943b0477965ed273c77028fe6d",
    "greedy_d3":
        "e80608dcdf489e3dac610d55af5f8b063feafaea31de394f95ca08bfb625bd98",
    "greedy_sparse":
        "67c1e06171a16db501c8cfac836f62ccdce492a58d38f19f1c522948217cc432",
    "walks": "64e5d30d66c973bd53e998f5bb527eed839a918ecf8ac8bbc336dcd5d05127e2",
}


@needs_native
@pytest.mark.parametrize("kind", [
    pytest.param("rbb"),
    pytest.param("rbb_rejections"),
    pytest.param("rbb_sparse"),
    pytest.param("greedy_d", marks=needs_native_greedy),
    pytest.param("greedy_d3", marks=needs_native_greedy),
    pytest.param("greedy_sparse", marks=needs_native_greedy),
    pytest.param("walks", marks=needs_native_walks),
])
def test_native_streams_are_pinned(kind):
    result = _pinned_run(kind)
    assert result.kernel == "native"
    digest = hashlib.sha256()
    for field in (
        "final_loads", "max_load_seen", "min_empty_bins_seen",
        "first_legitimate_round", "rounds",
    ):
        values = np.ascontiguousarray(getattr(result, field), dtype="<i8")
        digest.update(f"{field}:{values.shape}".encode())
        digest.update(values.tobytes())
    assert digest.hexdigest() == PINNED_DIGESTS[kind]


# ---------------------------------------------------------------------
# Legitimacy thresholds beyond int32
# ---------------------------------------------------------------------
@needs_native
class TestHugeBeta:
    """beta * ln(n) above 2**31 - 1 makes every configuration legitimate.
    The kernels take the threshold as int32, so the caller clamps it."""

    @pytest.mark.parametrize("kind", [
        pytest.param("rbb"),
        pytest.param("greedy_d", marks=needs_native_greedy),
        pytest.param("walks", marks=needs_native_walks),
    ])
    @pytest.mark.parametrize("beta", [1e9, math.inf])
    def test_native_matches_numpy(self, kind, beta):
        def first_legitimate_round(kernel):
            common = dict(seed=3, kernel=kernel, n_threads=1)
            if kind == "rbb":
                process = BatchedRepeatedBallsIntoBins(16, 2, **common)
            elif kind == "greedy_d":
                process = BatchedDChoices(16, 2, d=2, **common)
            else:
                process = BatchedConstrainedWalks(
                    resolve_topology("cycle:16"), 2, **common
                )
            result = process.run(8, beta=beta)
            assert result.kernel == kernel
            return result.first_legitimate_round

        native = first_legitimate_round("native")
        assert np.array_equal(native, first_legitimate_round("numpy"))
        assert (native == 1).all()


# ---------------------------------------------------------------------
# Exact integer moments tracker
# ---------------------------------------------------------------------
class TestMomentsTracker:
    def test_matches_numpy_reference(self):
        rng = np.random.default_rng(0)
        tracker = BatchedLoadMomentsTracker()
        observed = []
        for t in range(1, 6):
            loads = rng.integers(0, 10, size=(4, 32))
            tracker.observe(t, loads)
            observed.append(loads)
        stack = np.stack(observed)  # (T, R, n)
        assert np.array_equal(tracker.mean, stack.mean(axis=(0, 2)))
        assert np.allclose(tracker.variance, stack.var(axis=(0, 2)))
        payload = tracker.payload()
        assert np.array_equal(payload.summaries["mean_load"], tracker.mean)
        assert (payload.summaries["observations"] == 5 * 32).all()

    def test_fused_ingest_requires_moment_blocks(self):
        tracker = BatchedLoadMomentsTracker()
        stats = FusedSegmentStats(
            rounds=np.array([1], dtype=np.int64),
            max_load=np.ones((1, 2), dtype=np.int64),
            empty_bins=np.zeros((1, 2), dtype=np.int64),
            n_bins=8,
        )
        with pytest.raises(ConfigurationError):
            tracker.ingest_fused(stats)


# ---------------------------------------------------------------------
# Thread-count resolution and the flag-aware cache key
# ---------------------------------------------------------------------
class TestResolveNThreads:
    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_THREADS", "7")
        assert resolve_n_threads(3, n_replicas=100) in (1, 3)

    @needs_native
    def test_env_wins_over_cpu_count(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_THREADS", "5")
        resolved = resolve_n_threads(n_replicas=100)
        from repro.core.native import native_threading

        expected = 5 if native_threading() != "serial" else 1
        assert resolved == expected

    def test_default_is_cpu_count_clamped_by_replicas(self, monkeypatch):
        monkeypatch.delenv("REPRO_NATIVE_THREADS", raising=False)
        assert resolve_n_threads(n_replicas=1) == 1

    def test_empty_env_counts_as_unset(self, monkeypatch):
        from repro.core.native import env_n_threads

        monkeypatch.setenv("REPRO_NATIVE_THREADS", " ")
        assert env_n_threads() is None
        blank = resolve_n_threads(n_replicas=1000)
        monkeypatch.delenv("REPRO_NATIVE_THREADS")
        assert blank == resolve_n_threads(n_replicas=1000)
        monkeypatch.setenv("REPRO_NATIVE_THREADS", "3")
        assert env_n_threads() == 3

    def test_rejects_bad_values(self, monkeypatch):
        with pytest.raises(ConfigurationError):
            resolve_n_threads(0)
        monkeypatch.setenv("REPRO_NATIVE_THREADS", "two")
        with pytest.raises(ConfigurationError):
            resolve_n_threads()

    def test_cpu_count_positive(self):
        assert available_cpu_count() >= 1


class TestBinaryCacheKey:
    def test_flags_are_part_of_the_key(self):
        from repro.core.native import _KERNELS, _fingerprint

        spec = _KERNELS["rbb"]
        base = _fingerprint(spec, "cc", ())
        with_omp = _fingerprint(spec, "cc", ("-fopenmp",))
        assert base != with_omp
        assert _fingerprint(spec, "cc", ("-fopenmp",)) == with_omp
        assert _fingerprint(spec, "gcc", ("-fopenmp",)) != with_omp

    def test_header_is_part_of_the_key(self, monkeypatch, tmp_path):
        """The shared header is compiled in, so it must be hashed too."""
        from repro.core import native

        spec = native._KERNELS["rbb"]
        before = native._fingerprint(spec, "cc", ())
        edited = tmp_path / "_kernel_common.h"
        edited.write_bytes(native._COMMON_HEADER.read_bytes() + b"\n")
        monkeypatch.setattr(native, "_COMMON_HEADER", edited)
        assert native._fingerprint(spec, "cc", ()) != before


class TestKernelArgs:
    """The one place kernel argument lists are built: by C parameter name."""

    @staticmethod
    def _values(R=3, n=5):
        return {
            "loads": np.zeros((R, n), dtype=np.int32),
            "R": R,
            "n": n,
            "rounds": 4,
            "rng_state": np.ones((R, 4), dtype=np.uint64),
            "threshold": 2.0,
            "stop_when_legitimate": False,
            "max_seen": np.zeros(R, dtype=np.int32),
            "min_empty_seen": np.zeros(R, dtype=np.int32),
            "first_legit": np.full(R, -1, dtype=np.int64),
            "rounds_done": np.zeros(R, dtype=np.int64),
            "active": np.ones(R, dtype=np.uint8),
            "n_threads": 1,
            "observe_every": 1,
            "n_obs": 0,
            "obs_max": None,
            "obs_empty": None,
            "obs_sum": None,
            "obs_sumsq": None,
            "hist_k": 0,
            "obs_hist": None,
            "obs_overflow": None,
            "n_faults": 0,
            "fault_rounds": None,
            "fault_bins": None,
            "fault_legit": None,
        }

    def test_declared_order_and_types(self):
        values = self._values()
        args = kernel_args("rbb", dict(reversed(list(values.items()))))
        params = KERNEL_ABI["rbb_run"].params
        assert len(args) == len(params)
        for (name, ctype), arg in zip(params, args):
            if values[name] is None:
                assert arg is None  # NULL
            elif isinstance(values[name], np.ndarray):
                assert ctypes.addressof(arg.contents) == values[name].ctypes.data
            else:
                assert isinstance(arg, ctype)
                assert arg.value == values[name]

    def test_wrong_dtype_refused(self):
        values = self._values()
        values["loads"] = values["loads"].astype(np.int64)
        with pytest.raises(ConfigurationError, match="'loads'.*int32"):
            kernel_args("rbb", values)

    def test_non_contiguous_array_refused(self):
        # a copy would silently drop the kernel's writes
        values = self._values()
        values["max_seen"] = np.zeros(6, dtype=np.int32)[::2]
        with pytest.raises(ConfigurationError, match="'max_seen'.*non-contiguous"):
            kernel_args("rbb", values)

    def test_non_array_refused(self):
        values = self._values()
        values["active"] = [1, 1, 1]
        with pytest.raises(ConfigurationError, match="'active'.*list"):
            kernel_args("rbb", values)

    def test_missing_name_refused(self):
        values = self._values()
        del values["n_obs"]
        with pytest.raises(ConfigurationError, match=r"missing \['n_obs'\]"):
            kernel_args("rbb", values)

    def test_extra_name_refused(self):
        values = self._values()
        values["constrained"] = True  # a walks parameter, not an rbb one
        with pytest.raises(ConfigurationError, match=r"unexpected \['constrained'\]"):
            kernel_args("rbb", values)


# ---------------------------------------------------------------------
# n_threads through the ensemble and sweep layers
# ---------------------------------------------------------------------
@needs_native
class TestEnsemblePlumbing:
    SPEC = dict(n_bins=64, n_replicas=24, rounds=150)

    @pytest.mark.parametrize("process_kwargs", [
        {},
        {"metrics": "max_load,legitimacy,moments", "observe_every": 8},
        {
            "process": "faulty",
            "adversary": "concentrate",
            "fault_period": 60,
            "metrics": "max_load",
        },
        pytest.param(
            {
                "process": "d_choices",
                "d": 2,
                "metrics": "max_load,empty_bins",
                "observe_every": 8,
            },
            marks=needs_native_greedy,
        ),
    ])
    def test_run_ensemble_thread_invariant(self, process_kwargs):
        spec = EnsembleSpec(**self.SPEC, **process_kwargs)
        base = run_ensemble(spec, seed=9, kernel="native", n_threads=1)
        for n_threads in THREAD_COUNTS[1:]:
            run = run_ensemble(
                spec, seed=9, kernel="native", n_threads=n_threads
            )
            assert np.array_equal(run.final_loads, base.final_loads)
            assert set(run.metrics) == set(base.metrics)
            for name in run.metrics:
                for key, value in run.metrics[name].summaries.items():
                    assert np.array_equal(
                        value, base.metrics[name].summaries[key]
                    ), (name, key)


class TestSweepOversubscriptionGuard:
    SWEEP = SweepSpec(
        name="threads-guard",
        base={"n_bins": 32, "rounds": 40, "n_replicas": 8},
        grid={"n_bins": [32, 48]},
    )

    def test_explicit_threads_warn_and_cap(self, tmp_path):
        requested = available_cpu_count() * 8
        with pytest.warns(RuntimeWarning, match="oversubscription"):
            report = run_sweep(
                self.SWEEP, tmp_path, seed=1, n_threads=requested
            )
        assert report.finished
        # the header pins the *request*, so resuming on a bigger machine
        # runs unreduced
        header = report.store.read_header()
        assert header["n_threads"] == requested

    def test_within_budget_does_not_warn(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = run_sweep(self.SWEEP, tmp_path, seed=1, n_threads=1)
        assert report.finished
        assert report.store.read_header()["n_threads"] == 1

    def test_empty_env_is_not_an_explicit_request(self, monkeypatch):
        # an empty REPRO_NATIVE_THREADS reads as unset, as in
        # resolve_n_threads: no oversubscription warning, nothing capped
        from repro.sweeps.scheduler import _cap_threads

        monkeypatch.setenv("REPRO_NATIVE_THREADS", "")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert _cap_threads(None, 2) is None

    def test_default_header_omits_threads_and_resumes(self, tmp_path):
        report = run_sweep(self.SWEEP, tmp_path, seed=1, max_points=1)
        assert "n_threads" not in report.store.read_header()
        resumed = resume_sweep(tmp_path)
        assert resumed.finished and resumed.n_run == 1

    def test_pinned_threads_resume(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            run_sweep(
                self.SWEEP, tmp_path, seed=1, n_threads=64, max_points=1
            )
            resumed = resume_sweep(tmp_path)
        assert resumed.finished and resumed.n_run == 1
        assert resumed.store.read_header()["n_threads"] == 64
