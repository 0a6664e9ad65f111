"""Unit tests for the experiment harness (spec, tables, io, registry, harness)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.errors import ExperimentError
from repro.experiments import (
    available_experiments,
    format_table,
    get_experiment,
    load_result_json,
    rows_to_csv,
    run_experiment,
    save_result_csv,
    save_result_json,
)
from repro.experiments import registry
from repro.experiments.spec import ExperimentResult, ExperimentSpec


@pytest.fixture
def spec() -> ExperimentSpec:
    return ExperimentSpec(
        experiment_id="T1",
        title="test experiment",
        claim="unit test",
        default_params={"n": 4, "trials": 2},
        expected_shape="flat",
    )


class TestSpec:
    def test_merged_params_defaults(self, spec):
        assert spec.merged_params() == {"n": 4, "trials": 2}

    def test_merged_params_override(self, spec):
        assert spec.merged_params({"n": 8}) == {"n": 8, "trials": 2}

    def test_merged_params_rejects_unknown_keys(self, spec):
        with pytest.raises(ExperimentError):
            spec.merged_params({"bogus": 1})

    def test_result_rows_and_notes(self, spec):
        result = ExperimentResult(spec=spec, params=spec.merged_params())
        result.add_row(n=4, value=1.5)
        result.add_row(n=8, value=2.5)
        result.add_note("looks fine")
        assert result.experiment_id == "T1"
        assert result.column("value") == [1.5, 2.5]
        assert result.notes == ["looks fine"]
        payload = result.to_dict()
        assert payload["experiment_id"] == "T1"
        assert len(payload["rows"]) == 2

    def test_result_missing_column(self, spec):
        result = ExperimentResult(spec=spec, params={})
        result.add_row(a=1)
        with pytest.raises(ExperimentError):
            result.column("b")


class TestTables:
    def test_text_table(self):
        rows = [{"n": 64, "value": 1.23456}, {"n": 128, "value": 7.0}]
        text = format_table(rows, title="demo")
        assert "demo" in text
        assert "n" in text and "value" in text
        assert "64" in text and "128" in text
        assert "1.235" in text  # 4 significant digits

    def test_markdown_table(self):
        rows = [{"a": 1, "b": True}, {"a": 2, "b": None}]
        text = format_table(rows, style="markdown")
        assert text.startswith("| a | b |")
        assert "| 1 | yes |" in text
        assert "| 2 | - |" in text

    def test_empty_rows(self):
        assert "(empty table)" in format_table([])

    def test_explicit_columns_and_missing(self):
        rows = [{"a": 1, "b": 2}]
        text = format_table(rows, columns=["b", "a"])
        header = text.splitlines()[0]
        assert header.startswith("b")
        with pytest.raises(ExperimentError):
            format_table(rows, columns=["c"])

    def test_unknown_style(self):
        with pytest.raises(ExperimentError):
            format_table([{"a": 1}], style="latex")

    def test_extra_columns_in_later_rows(self):
        rows = [{"a": 1}, {"a": 2, "b": 3}]
        text = format_table(rows)
        assert "b" in text

    def test_csv(self):
        rows = [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}]
        csv_text = rows_to_csv(rows)
        lines = csv_text.strip().splitlines()
        assert lines[0] == "a,b"
        assert lines[1] == "1,x"


class TestIO:
    def test_json_round_trip(self, spec, tmp_path):
        result = ExperimentResult(spec=spec, params=spec.merged_params())
        result.add_row(n=4, value=1.5, flag=True)
        result.add_note("note")
        path = save_result_json(result, tmp_path / "out" / "result.json")
        assert path.exists()
        loaded = load_result_json(path)
        assert loaded.experiment_id == "T1"
        assert loaded.rows == [{"n": 4, "value": 1.5, "flag": True}]
        assert loaded.notes == ["note"]

    def test_json_handles_numpy_types(self, spec, tmp_path):
        import numpy as np

        result = ExperimentResult(spec=spec, params={})
        result.add_row(n=np.int64(4), value=np.float64(2.5), arr=np.array([1, 2]))
        path = save_result_json(result, tmp_path / "np.json")
        payload = json.loads(path.read_text())
        assert payload["rows"][0]["n"] == 4
        assert payload["rows"][0]["arr"] == [1, 2]

    def test_json_non_finite_floats_become_null(self, spec, tmp_path):
        """Regression: NaN/Infinity metrics must not leak non-standard JSON."""
        import numpy as np

        result = ExperimentResult(spec=spec, params={})
        result.add_row(
            plain_nan=float("nan"),
            np_nan=np.float64("nan"),
            pos_inf=float("inf"),
            neg_inf=np.float64("-inf"),
            arr=np.array([1.0, float("nan"), float("inf")]),
            nested={"inner": float("nan")},
            finite=1.5,
        )
        path = save_result_json(result, tmp_path / "nan.json")
        text = path.read_text()
        assert "NaN" not in text and "Infinity" not in text
        payload = json.loads(text)  # strict parse succeeds
        row = payload["rows"][0]
        assert row["plain_nan"] is None
        assert row["np_nan"] is None
        assert row["pos_inf"] is None
        assert row["neg_inf"] is None
        assert row["arr"] == [1.0, None, None]
        assert row["nested"] == {"inner": None}
        assert row["finite"] == 1.5

    def test_csv_output(self, spec, tmp_path):
        result = ExperimentResult(spec=spec, params={})
        result.add_row(a=1, b=2)
        path = save_result_csv(result, tmp_path / "rows.csv")
        assert path.read_text().startswith("a,b")

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ExperimentError):
            load_result_json(tmp_path / "missing.json")


class TestRegistry:
    def test_all_experiments_registered(self):
        ids = registry.all_ids()
        for expected in [f"E{i}" for i in range(1, 18)] + ["A1", "A2", "A3"]:
            assert expected in ids

    def test_lookup_case_insensitive(self):
        assert registry.get("e1").spec.experiment_id == "E1"

    def test_unknown_experiment(self):
        with pytest.raises(ExperimentError):
            registry.get("E99")

    def test_duplicate_registration_rejected(self):
        entry = registry.get("E1")
        with pytest.raises(ExperimentError):
            registry.register(entry.spec, entry.runner)

    def test_available_experiments_and_get(self):
        specs = available_experiments()
        assert len(specs) >= 17
        assert get_experiment("E14").claim == "Appendix B"

    def test_every_spec_has_claim_and_defaults(self):
        for spec_ in available_experiments():
            assert spec_.claim
            assert spec_.title
            assert isinstance(spec_.default_params, dict)


class TestRunExperimentSmallScale:
    """Run each experiment at a deliberately tiny scale to check the harness
    wiring (rows produced, key columns present).  Shape assertions live in
    ``tests/test_paper_shapes.py`` and the integration tests."""

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ExperimentError):
            run_experiment("E1", params={"nope": 3})

    def test_e1_small(self):
        result = run_experiment(
            "E1", params={"sizes": [16, 32, 64], "trials": 2, "rounds_factor": 1.0}, seed=0
        )
        assert len(result.rows) == 3
        assert all("mean_window_max" in row for row in result.rows)
        assert result.notes  # fit note emitted for >= 3 sizes

    def test_e2_small(self):
        result = run_experiment(
            "E2", params={"sizes": [16, 32], "trials": 2, "budget_factor": 30.0}, seed=0
        )
        assert len(result.rows) == 2
        assert all(row["converged_fraction"] == 1.0 for row in result.rows)

    def test_e3_small(self):
        result = run_experiment(
            "E3", params={"sizes": [32], "trials": 2, "rounds_factor": 2.0}, seed=0
        )
        assert len(result.rows) == 2  # two start configurations
        assert {row["start"] for row in result.rows} == {"balanced", "all_in_one"}

    def test_e4_small(self):
        result = run_experiment(
            "E4", params={"sizes": [32], "trials": 3, "rounds_factor": 1.0}, seed=0
        )
        assert result.rows[0]["maxload_domination_fraction"] >= 2 / 3

    def test_e5_small(self):
        # At n = 32 the 5n bound of Lemma 4 is not yet comfortably w.h.p.
        # (the drain takes ~4n rounds in expectation), so only check the
        # harness wiring here; the Lemma 4 shape check lives in the Tetris
        # unit tests and in tests/test_paper_shapes.py at larger n.
        result = run_experiment("E5", params={"sizes": [32], "trials": 2}, seed=0)
        row = result.rows[0]
        assert row["bound_5n"] == 5 * 32
        assert 0.0 <= row["within_bound_fraction"] <= 1.0

    def test_e6_small(self):
        result = run_experiment(
            "E6", params={"n": 64, "starts": [1, 2], "horizon_factor": 2.0, "mc_trials": 50}, seed=0
        )
        assert len(result.rows) == 2
        assert all(row["bound_violations"] == 0 for row in result.rows)

    def test_e7_small(self):
        result = run_experiment(
            "E7", params={"sizes": [16, 32], "trials": 2, "rounds_factor": 1.0}, seed=0
        )
        assert len(result.rows) == 2

    def test_e8_small(self):
        result = run_experiment(
            "E8", params={"sizes": [8, 16], "trials": 2, "budget_factor": 60.0}, seed=0
        )
        assert len(result.rows) == 2
        assert all(row["completed_fraction"] == 1.0 for row in result.rows)

    def test_e9_small(self):
        result = run_experiment(
            "E9",
            params={"n": 32, "gammas": [6.0, None], "trials": 2, "rounds_factor": 15.0},
            seed=0,
        )
        assert len(result.rows) == 2

    def test_e9_duplicate_gammas_still_produce_rows(self):
        """gammas that resolve to the same fault period (None and 0 both
        mean fault-free) share one sweep point but keep their table rows."""
        result = run_experiment(
            "E9",
            params={"n": 16, "gammas": [None, 0], "trials": 2, "rounds_factor": 2.0},
            seed=0,
        )
        assert len(result.rows) == 2
        assert result.rows[0]["fault_period"] is None
        assert result.rows[0]["mean_window_max_load"] == (
            result.rows[1]["mean_window_max_load"]
        )

    def test_a2_small_and_duplicate_sizes(self):
        result = run_experiment(
            "A2",
            params={"sizes": [16, 16], "d_values": [1, 2], "trials": 2, "rounds_factor": 1.0},
            seed=0,
        )
        assert len(result.rows) == 4
        # duplicate sizes share one sweep point per d
        assert (
            result.rows[0]["repeated_mean_window_max"]
            == result.rows[2]["repeated_mean_window_max"]
        )

    def test_e10_small(self):
        result = run_experiment(
            "E10", params={"sizes": [32, 64], "trials": 3, "window_factor": 1.0}, seed=0
        )
        assert len(result.rows) == 2
        for row in result.rows:
            assert row["repeated_window_mean_max"] >= row["one_shot_mean_max"]

    def test_e11_small(self):
        result = run_experiment(
            "E11", params={"n": 32, "window_factors": [1, 4], "trials": 2}, seed=0
        )
        assert len(result.rows) == 2

    def test_e12_small(self):
        result = run_experiment(
            "E12",
            params={"n": 32, "ratios": [0.5, 1.0, 2.0], "trials": 2, "rounds_factor": 1.0},
            seed=0,
        )
        assert [row["m_over_n"] for row in result.rows] == [0.5, 1.0, 2.0]

    def test_e13_small(self):
        result = run_experiment(
            "E13",
            params={"n": 16, "topologies": ["complete", "cycle"], "trials": 1, "rounds_factor": 1.0},
            seed=0,
        )
        assert {row["topology"] for row in result.rows} == {"complete", "cycle"}

    def test_e14_small(self):
        result = run_experiment("E14", params={"mc_sizes": [2], "mc_trials": 500}, seed=0)
        exact_row = result.rows[0]
        assert exact_row["method"] == "exact"
        assert exact_row["p_joint_zero"] == pytest.approx(0.125)
        assert exact_row["violates_negative_association"] is True

    def test_e15_small(self):
        result = run_experiment(
            "E15", params={"n": 32, "lams": [0.5, 0.9], "trials": 2, "rounds_factor": 2.0}, seed=0
        )
        assert len(result.rows) == 2

    def test_a1_small(self):
        result = run_experiment(
            "A1",
            params={"n": 16, "disciplines": ["fifo", "lifo"], "trials": 2, "rounds_factor": 1.0},
            seed=0,
        )
        assert {row["discipline"] for row in result.rows} == {"fifo", "lifo"}

    def test_a3_small(self):
        result = run_experiment(
            "A3", params={"n": 32, "rhos": [0.5, 1.0], "trials": 2, "rounds_factor": 2.0}, seed=0
        )
        assert len(result.rows) == 2


@pytest.mark.parametrize(
    "experiment_id, params",
    [
        ("E3", {"sizes": [32], "trials": 2, "rounds_factor": 2.0}),
        ("E10", {"sizes": [32, 64], "trials": 2, "window_factor": 1.0}),
        ("E11", {"n": 32, "window_factors": [1, 2], "trials": 2}),
        ("E12", {"n": 32, "ratios": [0.5, 1.0], "trials": 2, "rounds_factor": 1.0}),
    ],
)
def test_reused_seed_sequence_gives_the_int_seed_rows(experiment_id, params):
    """An experiment never advances the caller's seed object: two runs with
    one ``SeedSequence`` and a run with the equivalent int agree."""
    root = np.random.SeedSequence(7)
    first = run_experiment(experiment_id, params=params, seed=root).rows
    second = run_experiment(experiment_id, params=params, seed=root).rows
    from_int = run_experiment(experiment_id, params=params, seed=7).rows
    assert first == second == from_int
