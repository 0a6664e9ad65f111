"""The scenario tier of `repro verify`: no-op equality and invariant replay.

Exercises :mod:`repro.verify.scenario` directly (equality harness, event
ball accounting, observation-schedule conformance), the ``scenario_noop``
runner wired into the conformance loop, and the catalog/ground-truth
plumbing that lets adversary-only scenarios face the same exact chain as
the faulty engine.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.parallel.ensemble import EnsembleSpec
from repro.verify import (
    NOOP_SCENARIO,
    build_cases,
    case_by_name,
    check_observation_schedule,
    check_scenario_event_invariants,
    noop_differences,
    run_noop_equality,
)
from repro.verify.conformance import _ground_truth, run_case
from repro.verify.scenario import fresh_seed


class TestNoopEquality:
    def test_noop_scenario_constant_is_eventless(self):
        from repro.scenarios import resolve_scenario

        assert resolve_scenario(NOOP_SCENARIO).is_noop

    def test_equality_holds_on_batched_numpy(self):
        diffs = run_noop_equality(
            {
                "n_bins": 3,
                "n_replicas": 16,
                "observe_every": 2,
                "start": "all_in_one",
                "metrics": ("max_load", "trace"),
            },
            4,
            seed=9,
        )
        assert diffs == []

    def test_noop_differences_reports_mismatches(self):
        from repro.parallel.ensemble import run_ensemble

        spec = EnsembleSpec(
            n_bins=3, n_replicas=4, rounds=3, start="all_in_one", metrics="max_load"
        )
        a = run_ensemble(spec, seed=fresh_seed(1), kernel="numpy")
        b = run_ensemble(spec, seed=fresh_seed(1), kernel="numpy")
        assert noop_differences(a, b) == []
        b.final_loads[0, 0] += 1
        b.metrics["max_load"].rounds = np.array([99])
        diffs = noop_differences(a, b)
        assert any("final_loads" in d for d in diffs)
        assert any("max_load" in d for d in diffs)

    def test_fresh_seed_replays_identically(self):
        root = np.random.SeedSequence(1234).spawn(3)[1]
        a = fresh_seed(root)
        b = fresh_seed(root)
        assert np.array_equal(
            np.random.default_rng(a).integers(0, 100, 8),
            np.random.default_rng(b).integers(0, 100, 8),
        )


class TestEventInvariants:
    def test_burst_drain_walk_passes(self):
        violations = check_scenario_event_invariants(
            {
                "n_bins": 6,
                "n_replicas": 4,
                "rounds": 12,
                "start": "balanced",
                "scenario": "burst_recovery:at=3,count=9,drain_at=9",
            },
            seed=0,
        )
        assert violations == []

    def test_conserving_events_pass(self):
        violations = check_scenario_event_invariants(
            {
                "n_bins": 6,
                "n_replicas": 3,
                "rounds": 10,
                "start": "balanced",
                "scenario": "staged_adversary:switch=5,every=2,until=8",
            },
            seed=1,
        )
        assert violations == []

    def test_requires_a_scenario(self):
        with pytest.raises(ConfigurationError):
            check_scenario_event_invariants(
                {"n_bins": 4, "n_replicas": 2, "rounds": 4}, seed=0
            )


class TestObservationSchedule:
    def test_off_grid_events_keep_the_grid(self):
        violations = check_observation_schedule(
            {
                "n_bins": 8,
                "n_replicas": 3,
                "rounds": 40,
                "observe_every": 8,
                "start": "balanced",
                "metrics": "max_load,empty_bins",
                "scenario": '{"events": [{"kind": "burst", "round": 13, "count": 5}]}',
            },
            seed=0,
        )
        assert violations == []

    def test_stride_change_event_reflected(self):
        violations = check_observation_schedule(
            {
                "n_bins": 6,
                "n_replicas": 2,
                "rounds": 16,
                "observe_every": 4,
                "start": "balanced",
                "metrics": "max_load",
                "scenario": '{"events": [{"kind": "observe_every", "round": 9, "value": 2}]}',
            },
            seed=0,
        )
        assert violations == []

    def test_metricless_spec_is_flagged(self):
        violations = check_observation_schedule(
            {
                "n_bins": 4,
                "n_replicas": 2,
                "rounds": 8,
                "scenario": "burst_recovery:at=2,count=2",
            },
            seed=0,
        )
        assert violations == ["spec produced no metric payloads to check"]


class TestConformanceWiring:
    def test_catalog_contains_scenario_cases_at_both_levels(self):
        for level in ("smoke", "full"):
            names = [case.name for case in build_cases(level)]
            assert any(name.startswith("scenario-noop-") for name in names)
            assert any(name.startswith("scenario-adversary-") for name in names)

    def test_scenario_noop_case_passes(self):
        case = case_by_name("scenario-noop-batched-numpy", level="smoke")
        outcomes = run_case(case, np.random.SeedSequence(5), alpha=1e-6)
        assert outcomes and all(o.passed for o in outcomes)
        assert {o.check for o in outcomes} == {"noop_bit_equality"}

    def test_scenario_adversary_ground_truth_matches_faulty_schedule(self):
        scenario_case = case_by_name("scenario-adversary-batched-numpy", "smoke")
        spec = EnsembleSpec(**dict(scenario_case.spec_config))
        truth = _ground_truth(spec, 4)
        assert truth.fault_rounds == (2, 4)
        assert truth.F is not None
        faulty_case = case_by_name("faulty-concentrate-batched-numpy", "smoke")
        faulty_spec = EnsembleSpec(**dict(faulty_case.spec_config))
        faulty_truth = _ground_truth(faulty_spec, 4)
        assert truth.fault_rounds == faulty_truth.fault_rounds
        assert np.array_equal(truth.F, faulty_truth.F)
        assert np.array_equal(truth.P, faulty_truth.P)

    def test_ground_truth_rejects_non_adversary_scenarios(self):
        spec = EnsembleSpec(
            n_bins=3,
            n_replicas=4,
            rounds=4,
            start="balanced",
            scenario='{"events": [{"kind": "burst", "round": 2, "count": 1}]}',
        )
        with pytest.raises(ConfigurationError, match="adversary"):
            _ground_truth(spec, 4)

    def test_report_rows_label_scenario_cases(self):
        from repro.verify import ground_truth_rows

        rows = {row["case"]: row for row in ground_truth_rows("smoke")}
        assert rows["scenario-noop-batched-numpy"]["process"] == "rbb+noop-scenario"
        assert rows["scenario-adversary-batched-numpy"]["process"] == "rbb+scenario"
        assert (
            rows["scenario-noop-batched-numpy"]["engine"] == "batched/numpy"
        )
