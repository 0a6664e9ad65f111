"""Threaded native kernels and fused in-kernel observation.

The contract under test: the thread count is a pure execution knob — for
any ``n_threads`` the native kernels produce **bit-identical**
trajectories and observation series (replicas own disjoint state and RNG
streams, so the parallelization axis cannot reorder any arithmetic) — and
the fused in-kernel observation path is indistinguishable from the
segmented Python-side observer loop on every registered metric.

Also covered here: the flag-aware binary cache key, thread-count
resolution precedence, the exact-moments tracker, and the sweep
scheduler's oversubscription guard.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.core.batched import BatchedRepeatedBallsIntoBins
from repro.core.native import (
    available_cpu_count,
    native_available,
    resolve_n_threads,
)
from repro.errors import ConfigurationError
from repro.graphs.batched import BatchedConstrainedWalks
from repro.graphs.generators import resolve_topology
from repro.metrics import (
    METRIC_NAMES,
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

THREAD_COUNTS = (1, 2, max(2, available_cpu_count()))

#: Metrics whose trackers ingest in-kernel segment statistics; the rest
#: (trace, histogram, bin_emptying) need full load matrices, so their
#: presence in an observer list sends the whole run down the segmented
#: fallback path.
FUSED_METRICS = "max_load,empty_bins,legitimacy,moments"


def _rbb(n_threads, **kwargs):
    defaults = dict(seed=42, kernel="native", n_threads=n_threads)
    defaults.update(kwargs)
    return BatchedRepeatedBallsIntoBins(96, 33, **defaults)


def _walks(n_threads, **kwargs):
    defaults = dict(seed=42, kernel="native", n_threads=n_threads)
    defaults.update(kwargs)
    return BatchedConstrainedWalks(resolve_topology("cycle:64"), 33, **defaults)


def _payloads(spec_metrics, process, run_kwargs):
    """(final loads, metric payload map) for one run."""
    trackers = build_trackers(spec_metrics)
    observers = [tracker for _, tracker in trackers]
    result = process.run(observers=observers, **run_kwargs)
    return result.final_loads, {
        name: tracker.payload() for name, tracker in trackers
    }


def _assert_payloads_equal(a, b, context=""):
    assert set(a) == set(b)
    for name in a:
        pa, pb = a[name], b[name]
        assert set(pa.summaries) == set(pb.summaries), (context, name)
        for key in pa.summaries:
            assert np.array_equal(pa.summaries[key], pb.summaries[key]), (
                context,
                name,
                key,
            )
        assert set(pa.series) == set(pb.series), (context, name)
        for key in pa.series:
            assert np.array_equal(
                np.asarray(pa.series[key]), np.asarray(pb.series[key])
            ), (context, name, key)


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
    @pytest.mark.parametrize("observe_every", [1, 7, 16, 1000])
    def test_rbb_fused_matches_segmented(self, observe_every, monkeypatch):
        kwargs = dict(rounds=120, observe_every=observe_every)
        fused_loads, fused = _payloads(FUSED_METRICS, _rbb(2), kwargs)
        monkeypatch.setenv("REPRO_NATIVE_FUSED", "0")
        seg_loads, segmented = _payloads(FUSED_METRICS, _rbb(2), kwargs)
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

    def test_header_is_part_of_the_key(self):
        """The shared header is compiled in, so it must be hashed too."""
        import dataclasses

        from repro.core.native import _KERNELS, _fingerprint

        spec = _KERNELS["rbb"]
        without_header = dataclasses.replace(spec, headers=())
        assert _fingerprint(spec, "cc", ()) != _fingerprint(
            without_header, "cc", ()
        )


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
