"""Tests for the batched graph-walk stack: BatchedConstrainedWalks, the
topology spec language, engine routing, sweeps/store round trip, and the
native walk kernel."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import LoadConfiguration
from repro.core.native import native_available
from repro.errors import ConfigurationError, GraphError
from repro.graphs import (
    BatchedConstrainedWalks,
    ConstrainedParallelWalks,
    parse_topology_spec,
    resolve_topology,
    star_graph,
)
from repro.metrics import BatchedEmptyBinsTracker, BatchedMaxLoadTracker
from repro.parallel.ensemble import EnsembleSpec, PROCESSES, run_ensemble
from repro.store import ResultStore
from repro.sweeps import expand_sweep, graph_topologies_sweep_spec, run_sweep

#: One spec per named generator, kept small so the whole matrix stays fast.
TOPOLOGY_SPECS = (
    "complete:16",
    "cycle:16",
    "torus:4x4",
    "hypercube:4",
    "random_regular:16:4",
    "star:16",
)

needs_walk_kernel = pytest.mark.skipif(
    not native_available("walks"), reason="native walk kernel unavailable"
)


# ----------------------------------------------------------------------
# Topology spec language
# ----------------------------------------------------------------------
class TestTopologySpecs:
    @pytest.mark.parametrize("spec", TOPOLOGY_SPECS)
    def test_parse_matches_resolve(self, spec):
        parsed = parse_topology_spec(spec)
        topology = resolve_topology(spec)
        assert parsed.num_nodes == topology.num_nodes

    def test_torus_square_shorthand(self):
        assert parse_topology_spec("torus:4").num_nodes == 16
        assert parse_topology_spec("torus:3x5").num_nodes == 15

    def test_resolution_is_cached_and_deterministic(self):
        a = resolve_topology("random_regular:24:3")
        b = resolve_topology("random_regular:24:3")
        assert a is b  # lru_cache: one shared CSR per process
        # deterministic across specs: the seed derives from the spec string
        edges_a = resolve_topology("random_regular:24:3").edge_list()
        assert edges_a == b.edge_list()

    def test_equivalent_spellings_name_the_same_graph(self):
        # the parser is case-insensitive and normalizes arguments, and the
        # random_regular seed derives from the *canonical* spelling — so
        # every spelling the parser treats as equal builds the same graph
        assert (
            parse_topology_spec("Random_Regular:24:3").spec
            == parse_topology_spec(" random_regular:24:3 ").spec
        )
        assert (
            resolve_topology("Random_Regular:24:3").edge_list()
            == resolve_topology("random_regular:24:3").edge_list()
        )
        assert parse_topology_spec("torus:4x4").spec == (
            parse_topology_spec("torus:4").spec
        )

    @pytest.mark.parametrize(
        "bad",
        [
            "moebius:16",  # unknown family
            "cycle",  # missing argument
            "cycle:2",  # below the generator's bound
            "torus:2x8",  # dimension below 3
            "random_regular:16",  # missing degree
            "random_regular:16:1",  # degree below 2
            "random_regular:15:3",  # odd n * degree
            "hypercube:zero",  # non-integer
            "",
        ],
    )
    def test_malformed_specs_rejected(self, bad):
        with pytest.raises(GraphError):
            parse_topology_spec(bad)


# ----------------------------------------------------------------------
# R = 1 stream equality vs the single-replica simulator (numpy kernel)
# ----------------------------------------------------------------------
class TestStreamEquality:
    @pytest.mark.parametrize("spec", TOPOLOGY_SPECS)
    @pytest.mark.parametrize("constrained", [True, False])
    def test_single_replica_matches_sequential(self, spec, constrained):
        topology = resolve_topology(spec)
        sequential = ConstrainedParallelWalks(
            topology, constrained=constrained, seed=42
        )
        batched = BatchedConstrainedWalks(
            topology, 1, constrained=constrained, seed=42, kernel="numpy"
        )
        for t in range(60):
            expected = sequential.step()
            actual = batched.step()
            assert np.array_equal(actual[0], expected), (spec, constrained, t)

    def test_single_replica_run_windows_match(self):
        topology = resolve_topology("torus:4x4")
        initial = LoadConfiguration.all_in_one(16)
        sequential = ConstrainedParallelWalks(topology, initial=initial, seed=7)
        batched = BatchedConstrainedWalks(
            topology, 1, initial=initial, seed=7, kernel="numpy"
        )
        outcome = sequential.run(50)
        result = batched.run(50)
        assert np.array_equal(
            result.final_loads[0], outcome.final_configuration.as_array()
        )
        # the sequential window includes the starting configuration; the
        # engine window covers executed rounds only, so it can only differ
        # by that initial observation
        assert result.max_load_seen[0] <= outcome.max_load_seen
        assert result.min_empty_bins_seen[0] >= outcome.min_empty_nodes_seen


# ----------------------------------------------------------------------
# Batched ensemble semantics
# ----------------------------------------------------------------------
class TestBatchedWalks:
    @pytest.mark.parametrize("constrained", [True, False])
    def test_token_conservation_on_star(self, constrained):
        # the irregular stress case: hub degree n-1, leaves degree 1
        topology = star_graph(24)
        batched = BatchedConstrainedWalks(
            topology, 6, constrained=constrained, seed=3, kernel="numpy"
        )
        for _ in range(40):
            loads = batched.step()
            assert (loads.sum(axis=1) == 24).all()
            assert (loads >= 0).all()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_property_conservation_heterogeneous_tokens(self, seed):
        # per-replica starts with different token counts stay conserved
        rng = np.random.default_rng(seed)
        initial = rng.integers(0, 4, size=(5, 24))
        batched = BatchedConstrainedWalks(
            star_graph(24), 5, initial=initial, seed=seed, kernel="numpy"
        )
        totals = initial.sum(axis=1)
        result = batched.run(30)
        assert np.array_equal(result.final_loads.sum(axis=1), totals)

    def test_frozen_replicas_do_not_move(self):
        batched = BatchedConstrainedWalks(
            resolve_topology("cycle:16"), 3, seed=0, kernel="numpy"
        )
        batched.deactivate(np.asarray([True, False, False]))
        frozen = batched.loads[0].copy()
        batched.step()
        assert np.array_equal(batched.loads[0], frozen)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BatchedConstrainedWalks(resolve_topology("cycle:16"), 0)
        with pytest.raises(ConfigurationError):
            BatchedConstrainedWalks(
                resolve_topology("cycle:16"), 2, kernel="vulkan"
            )


# ----------------------------------------------------------------------
# Engine routing (EnsembleSpec process="graph_walks")
# ----------------------------------------------------------------------
class TestEnsembleRouting:
    def test_graph_walks_registered(self):
        assert "graph_walks" in PROCESSES

    @pytest.mark.parametrize("spec_str", TOPOLOGY_SPECS)
    @pytest.mark.parametrize("constrained", [True, False])
    def test_engines_stream_equal_at_single_replica(
        self, spec_str, constrained, single_replica_rng
    ):
        # acceptance: run_ensemble at R = 1 (numpy kernel) is stream-equal to
        # ConstrainedParallelWalks on the shard's stream, for every
        # catalogued topology
        n = parse_topology_spec(spec_str).num_nodes
        spec = EnsembleSpec(
            n_bins=n,
            n_replicas=1,
            rounds=40,
            process="graph_walks",
            topology=spec_str,
            constrained=constrained,
        )
        batched = run_ensemble(spec, seed=11, engine="batched", kernel="numpy")
        walks = ConstrainedParallelWalks(
            resolve_topology(spec_str),
            constrained=constrained,
            seed=single_replica_rng(11),
        )
        max_load = BatchedMaxLoadTracker()
        empty_bins = BatchedEmptyBinsTracker()
        walks.run(40, observers=[max_load, empty_bins])
        assert np.array_equal(walks.loads, batched.final_loads[0])
        # the trackers fold post-step configurations, like the engine window
        assert np.array_equal(max_load.window_max, batched.max_load_seen)
        assert np.array_equal(empty_bins.window_min, batched.min_empty_bins_seen)

    def test_metrics_pipeline_observes_walks(self):
        spec = EnsembleSpec(
            n_bins=16,
            n_replicas=3,
            rounds=20,
            process="graph_walks",
            topology="star:16",
            metrics="max_load,empty_bins",
            observe_every=4,
        )
        result = run_ensemble(spec, seed=2, kernel="numpy")
        payload = result.metrics["max_load"]
        assert payload.summaries["window_max"].shape == (3,)
        series = payload.series["max_load"]
        assert series.shape[1] == 3
        # the star hub shows up in the observed series too
        assert payload.summaries["window_max"].max() > 4

    def test_start_families_apply_to_walks(self):
        spec = EnsembleSpec(
            n_bins=16,
            n_replicas=2,
            rounds=0,
            process="graph_walks",
            topology="cycle:16",
            start="all_in_one",
        )
        result = run_ensemble(spec, seed=0, engine="batched", kernel="numpy")
        assert (result.final_loads[:, 0] == 16).all()
        # idle (zero-round) replicas report the observed state, not zeros
        assert (result.max_load_seen == 16).all()
        assert (result.min_empty_bins_seen == 15).all()

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            EnsembleSpec(
                n_bins=16, n_replicas=1, rounds=1, process="graph_walks"
            )
        with pytest.raises(ConfigurationError):
            EnsembleSpec(
                n_bins=8,
                n_replicas=1,
                rounds=1,
                process="graph_walks",
                topology="cycle:16",
            )
        with pytest.raises(ConfigurationError):
            EnsembleSpec(
                n_bins=16, n_replicas=1, rounds=1, topology="cycle:16"
            )


# ----------------------------------------------------------------------
# Sweep + store round trip
# ----------------------------------------------------------------------
class TestGraphSweep:
    def test_catalogued_sweep_runs_and_round_trips(self, tmp_path):
        sweep = graph_topologies_sweep_spec(
            topologies=("cycle:16", "star:16"),
            trials=3,
            rounds_factor=1.0,
            observe_every=4,
        )
        plan = expand_sweep(sweep)
        assert plan.n_points == 2
        store_dir = tmp_path / "walks-sweep"
        report = run_sweep(sweep, store_dir, seed=4, kernel="numpy")
        assert report.finished

        store = ResultStore.open(store_dir)
        table = store.select(topology="star:16")
        assert len(table.rows) == 1
        row = table.rows[0]
        assert row["process"] == "graph_walks"
        assert row["window_max_load_mean"] > 0
        # observed streaming summaries made it into the manifest
        assert "max_load_window_max_mean" in row
        assert "empty_bins_window_min_mean" in row
        # the full per-replica series round-trips through the shard
        arrays = store.replicas(row["point_id"])
        assert arrays["observed.max_load.series.max_load"].shape[1] == 3

    def test_auto_kernel_resolution_consults_the_walk_kernel(self):
        # a graph-walks sweep must pin "native" only when the *walk* kernel
        # is available — not merely the rbb kernel
        from repro.core.native import native_available
        from repro.sweeps.scheduler import _resolve_kernel

        plan = expand_sweep(
            graph_topologies_sweep_spec(topologies=("cycle:16",), trials=1)
        )
        expected = "native" if native_available("walks") else "numpy"
        assert _resolve_kernel("auto", plan) == expected
        # explicit kernels pass through untouched
        assert _resolve_kernel("numpy", plan) == "numpy"

    def test_sweep_spec_json_round_trip(self):
        from repro.sweeps import SweepSpec

        sweep = graph_topologies_sweep_spec(topologies=("torus:4x4",), trials=2)
        clone = SweepSpec.from_dict(sweep.to_dict())
        assert expand_sweep(clone).points[0].point_id == (
            expand_sweep(sweep).points[0].point_id
        )


# ----------------------------------------------------------------------
# Native walk kernel
# ----------------------------------------------------------------------
@needs_walk_kernel
class TestNativeWalkKernel:
    @pytest.mark.parametrize("spec_str", TOPOLOGY_SPECS)
    @pytest.mark.parametrize("constrained", [True, False])
    def test_conservation_every_topology(self, spec_str, constrained):
        topology = resolve_topology(spec_str)
        batched = BatchedConstrainedWalks(
            topology, 8, constrained=constrained, seed=1, kernel="native"
        )
        result = batched.run(50)
        assert result.kernel == "native"
        assert (result.final_loads.sum(axis=1) == topology.num_nodes).all()
        assert (result.final_loads >= 0).all()

    def test_deterministic_for_fixed_seed(self):
        topology = resolve_topology("torus:4x4")
        a = BatchedConstrainedWalks(topology, 4, seed=9, kernel="native").run(40)
        b = BatchedConstrainedWalks(topology, 4, seed=9, kernel="native").run(40)
        assert np.array_equal(a.final_loads, b.final_loads)
        assert np.array_equal(a.max_load_seen, b.max_load_seen)

    def test_segmented_observation_matches_whole_window(self):
        # the xoshiro lane buffer resets per round, so observe_every
        # segmentation must not change the trajectory
        topology = resolve_topology("cycle:16")
        whole = BatchedConstrainedWalks(topology, 4, seed=6, kernel="native")
        seen = []
        segmented = BatchedConstrainedWalks(topology, 4, seed=6, kernel="native")
        r_whole = whole.run(60)
        r_seg = segmented.run(
            60, observers=lambda t, loads: seen.append(t), observe_every=7
        )
        assert np.array_equal(r_whole.final_loads, r_seg.final_loads)
        assert np.array_equal(r_whole.max_load_seen, r_seg.max_load_seen)
        assert seen[-1] == 60

    def test_distribution_matches_numpy_kernel(self):
        # different generators, same process: window maxima agree in mean
        topology = resolve_topology("hypercube:4")
        R, rounds = 96, 80
        native = BatchedConstrainedWalks(
            topology, R, seed=12, kernel="native"
        ).run(rounds)
        numpy_ = BatchedConstrainedWalks(
            topology, R, seed=13, kernel="numpy"
        ).run(rounds)
        assert abs(
            native.max_load_seen.mean() - numpy_.max_load_seen.mean()
        ) < 1.0

    def test_early_stop_freezes_replicas(self):
        topology = resolve_topology("complete:16")
        initial = LoadConfiguration.all_in_one(16)
        batched = BatchedConstrainedWalks(
            topology, 6, initial=initial, seed=2, kernel="native"
        )
        result = batched.run(400, stop_when_legitimate=True)
        assert result.converged.all()
        assert (result.rounds <= 400).all()
        assert (result.first_legitimate_round > 0).all()

    def test_engine_selects_native_by_default(self):
        spec = EnsembleSpec(
            n_bins=16,
            n_replicas=4,
            rounds=10,
            process="graph_walks",
            topology="cycle:16",
        )
        result = run_ensemble(spec, seed=0, engine="batched", kernel="auto")
        assert result.kernel == "native"
