"""SHA-256 pins of the single-replica simulators' streams.

Each pin hashes one run's final loads, every field of its result, what
its observers saw and the state of the ``Generator`` handed in as
``seed`` afterwards, so any rewrite of the simulators (or of the batched
classes behind them) that changes a draw, a load or a window value shows
here.  Observed loads are hashed flat, whatever their shape, and every
integer as little-endian int64.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.adversary.faulty_process import FaultSchedule, FaultyProcess
from repro.baselines.d_choices import DChoicesProcess
from repro.core.config import LoadConfiguration
from repro.core.process import RepeatedBallsIntoBins
from repro.graphs import ConstrainedParallelWalks, resolve_topology
from repro.metrics import BatchedTraceRecorder

SEED = 2024


def _digest(rng, *values) -> str:
    """SHA-256 of ``values`` (ints, ``None``, arrays) and ``rng``'s state."""
    digest = hashlib.sha256()
    for value in values:
        if value is None:
            value = -1
        flat = np.asarray(value).reshape(-1)
        digest.update(np.ascontiguousarray(flat, dtype="<i8").tobytes())
    digest.update(json.dumps(rng.bit_generator.state, sort_keys=True).encode())
    return digest.hexdigest()


def _trace(recorder):
    """A trace recorder's rounds and snapshots as hashable values."""
    snapshots = (np.asarray(s).reshape(-1) for s in recorder.snapshots)
    return [recorder.snapshot_rounds, *snapshots]


# ----------------------------------------------------------------------
# RepeatedBallsIntoBins
# ----------------------------------------------------------------------
def _rbb_start(n, start):
    if start == "balanced":
        return LoadConfiguration.balanced(n)
    if start == "all_in_one":
        return LoadConfiguration.all_in_one(n)
    loads = np.arange(n) % 4  # uneven, with m != n balls
    loads[0] += 3
    return LoadConfiguration(loads)


def _rbb_result(result):
    return [
        result.rounds,
        result.final_configuration.loads,
        result.max_load_seen,
        result.min_empty_bins_seen,
        result.first_legitimate_round,
    ]


def _rbb_digest(n, start, op):
    rng = np.random.default_rng(SEED)
    initial = _rbb_start(n, start)
    process = RepeatedBallsIntoBins(n, initial=initial, seed=rng)
    values = []
    if op == "run200":
        values += _rbb_result(process.run(200))
    elif op == "stop":
        values += _rbb_result(process.run(50 * n, stop_when_legitimate=True))
    elif op == "steps50":
        for _ in range(50):
            values.append(np.array(process.step()))
    elif op == "until":
        values.append(process.run_until_legitimate(50 * n))
    elif op == "inject_run":
        values += _rbb_result(process.run(20))
        process.inject_loads(LoadConfiguration.all_in_one(n, initial.n_balls))
        values += _rbb_result(process.run(100))
    elif op == "reset_run":
        values += _rbb_result(process.run(20))
        process.reset()
        values += _rbb_result(process.run(100))
    values += [process.loads, process.round_index, process.n_balls]
    return _digest(rng, *values)


#: SHA-256 of each (n, start, op) run, see ``_rbb_digest``.  ``stop`` runs
#: only from all-in-one starts that are not legitimate already.
RBB_PINS = {
    (1, "all_in_one", "inject_run"): "6a4c54ca5a82b500c735e3b1abeae93cade1da6acdc8fe235f22418df2e7cb76",
    (1, "all_in_one", "reset_run"): "f3cffb856e2a6f9392d8cd5033d89a1cdebbf64333144f0d104db90da4619783",
    (1, "all_in_one", "run200"): "13a3f9d2a76e0726ca8531b13cc825acba6bb9dc625fbb20e6610cc2045e03eb",
    (1, "all_in_one", "steps50"): "830155758f5e0fd685a8f720d2ad6924f63aa66f6f3486f940d66de1817274bd",
    (1, "all_in_one", "until"): "56acf1d62588d435b7bb77f4d7e7b2052d88634645497479b80dd90559c44087",
    (1, "balanced", "inject_run"): "6a4c54ca5a82b500c735e3b1abeae93cade1da6acdc8fe235f22418df2e7cb76",
    (1, "balanced", "reset_run"): "f3cffb856e2a6f9392d8cd5033d89a1cdebbf64333144f0d104db90da4619783",
    (1, "balanced", "run200"): "13a3f9d2a76e0726ca8531b13cc825acba6bb9dc625fbb20e6610cc2045e03eb",
    (1, "balanced", "steps50"): "830155758f5e0fd685a8f720d2ad6924f63aa66f6f3486f940d66de1817274bd",
    (1, "balanced", "until"): "56acf1d62588d435b7bb77f4d7e7b2052d88634645497479b80dd90559c44087",
    (1, "uneven", "inject_run"): "5c8c5bc76864c89ae45139a0f3121dc5a9ad4a3c26084fb2e946ee953f3148b0",
    (1, "uneven", "reset_run"): "60ece3dcb77a3f95e11997fd7745771ce2865e39d793a4cd9fe036126ab60375",
    (1, "uneven", "run200"): "058025295149e96e3515edfc7e380dadbc0697452754a7a4a1c4f2aed2d06f06",
    (1, "uneven", "steps50"): "87baa2eecc7728344ecbf3195018c9267e3e065de2e02b3d65fe8f5eedcb3975",
    (1, "uneven", "until"): "edbf19d2c6100bf6f4841b124c615cc4ae459f82c825ff8ff530a4d8adf1f8ce",
    (16, "all_in_one", "inject_run"): "08dc9854cd4bf357ac43a4076cf58e5181021be3d0286be87eb9c7e5d1eb51be",
    (16, "all_in_one", "reset_run"): "20bb59b9a063b5c17691d860cbbfe9ce2ba82896c4d6c13c49987596d00d818c",
    (16, "all_in_one", "run200"): "e9ec6e0bc108c186390e71c63992e1ad024d7fa7e2313432b2ed25498ecfbe50",
    (16, "all_in_one", "steps50"): "ad655516ff261a43b808c4db5eed038204719f561cbed3543e8ba8c72b64cd87",
    (16, "all_in_one", "stop"): "8b0c9025b7e9f78cad3e00562e86a96bcc948c20d7aa676f04777ac87cac3c44",
    (16, "all_in_one", "until"): "0016ac634a91ec72cf2b56a650ba3cdd5863cf4658553cdc6357df2356aab6be",
    (16, "balanced", "inject_run"): "a2c1b407d6b065fcc5b78b22b0072e0cc84fb979b7d69c9093d628868d945884",
    (16, "balanced", "reset_run"): "e52d111123c09ad183a7557609d5cb69b7aeb3544e126ea9f4e523ddfb0ce031",
    (16, "balanced", "run200"): "cbcfda0598c0972ea5d06b4a11b4beac9eb5fad681290aff0f9be51558b5b800",
    (16, "balanced", "steps50"): "d836d47492c59736557e588768b1d67614ca0951e78e7998575d35f64954bb6c",
    (16, "balanced", "until"): "327786f1129059438f5cf2add41806a20c892bf653a23e94ca87b42d92ee8296",
    (16, "uneven", "inject_run"): "8ee3ca81ce4e898b3de3a21d5fa122f36e3f2b3accae93474e1c6842322bca97",
    (16, "uneven", "reset_run"): "f683395b7869e40c80a8ba457d3e0a75a5d188980c543b3a94258555dcbf92e8",
    (16, "uneven", "run200"): "eea269fbdefde93c5c21da1da14ee09e2cd440da8a883315c1b3dbf55a73c41d",
    (16, "uneven", "steps50"): "0b1dc969183ad2fdaa743bfcce284604abbff76b6bdcc07d132d014b9eac4aa1",
    (16, "uneven", "until"): "efdc406d5eecd107711366c3d8b14353f48315affd464b7df007eab9d30d82fe",
    (37, "all_in_one", "inject_run"): "def54f371764451401c7e00fea52fc4233455c43593ad55dc6bf7c5e5633804a",
    (37, "all_in_one", "reset_run"): "7b4f72ab92fa12733f5496b419020cdd3f1b98e6405e78e6ff6f883a5710fd30",
    (37, "all_in_one", "run200"): "d93e08653b1d7d5c8772e8cadb448efe5b0e6676310a46cf1cc104de4dbc7178",
    (37, "all_in_one", "steps50"): "ebc8f8909b8dd45d09934e9f31716d317d5336117be396e15616097d11d22484",
    (37, "all_in_one", "stop"): "05141e3ba0374aed92db62172c97ea3228be52bcdcd5ab0c7e85412f11e7afdd",
    (37, "all_in_one", "until"): "61246871b4df6acaa28e554ef521b53cdc768d55853f8ab19ab06ee32d70624f",
    (37, "balanced", "inject_run"): "6a2dcfe13322d97943f900cf9856e912e31ed0d1c45b9f761b7b8006ba63d9d7",
    (37, "balanced", "reset_run"): "6e08c175e778706506e28f73e6d38c5ae526682467d2b32338bf24bb388f7668",
    (37, "balanced", "run200"): "8834748c13d2856854e44c541229df3d905b8cbac4a8fc0f01fca98d02d56f9f",
    (37, "balanced", "steps50"): "ebf0d2bda3bcec17eee7fe7f1b3ef1b1084ae9c4080a169b2c6e63a1895327c8",
    (37, "balanced", "until"): "c1bb3282662bae9044c0bfcdfe6f1deaa63e35fd1c55ad3e1324b8cfd98ecbf3",
    (37, "uneven", "inject_run"): "91d07dd7719c1e896d030b01fb548ed987218498acacca795d306b75e9082ddd",
    (37, "uneven", "reset_run"): "fb047bfc188f8023566722afd04a2ab7333d48dffd0b122ddffc4cad064681ed",
    (37, "uneven", "run200"): "bd962f0c13c95dfbb2029e9928256eeadb53b29e5d58bac874d487fd6625849c",
    (37, "uneven", "steps50"): "836ff4509720a7bec2c2ce17c1fec6ac5e9b190a4d5e1d7303037c4e764a8d49",
    (37, "uneven", "until"): "fa443a65b9e11062e4a71b5dd3510c53c67fd975d40744b9f82d85792226f810",
}


# ----------------------------------------------------------------------
# DChoicesProcess
# ----------------------------------------------------------------------
def _d_choices_digest(n, d):
    rng = np.random.default_rng(SEED)
    process = DChoicesProcess(
        n, d=d, initial=LoadConfiguration.all_in_one(n), seed=rng
    )
    result = process.run(50)
    return _digest(
        rng,
        result.rounds,
        result.final_configuration.loads,
        result.max_load_seen,
        result.min_empty_bins_seen,
        process.loads,
        process.round_index,
    )


#: SHA-256 of each (n, d) run, see ``_d_choices_digest``.
D_CHOICES_PINS = {
    (16, 1): "7ec621450151acbc616b16665468bb35a2401d92840414f76b2d40590477a702",
    (16, 2): "460364e1ab97db9351d77d12b43618508108906b5bc5c7a5568a1c28fb83b207",
    (16, 3): "243f3bc92b5ec3c4130327bdd0b14fdb375c2125752186066050c827b8e0f169",
    (64, 1): "e2f7bfda5fab2f53fcf7c21c4b5b93625e39134b81bcc1b21aae27ed389148f7",
    (64, 2): "129b4d0f4acfea55335f84c3e098bd49654d037d4bc1b971eef4956c3a3fbf85",
    (64, 3): "d730cd60d473afa0edd6cd56956346ed5f6e32365157b54ad61fa79c96a0830f",
}


# ----------------------------------------------------------------------
# ConstrainedParallelWalks
# ----------------------------------------------------------------------
def _walks_digest(spec, constrained):
    rng = np.random.default_rng(SEED)
    n = resolve_topology(spec).num_nodes
    walks = ConstrainedParallelWalks(
        resolve_topology(spec),
        initial=LoadConfiguration.all_in_one(n),
        constrained=constrained,
        seed=rng,
    )
    trace = BatchedTraceRecorder()
    result = walks.run(100, observers=trace, observe_every=7)
    return _digest(
        rng,
        result.rounds,
        result.max_load_seen,
        result.final_configuration.loads,
        result.min_empty_nodes_seen,
        walks.loads,
        walks.round_index,
        *_trace(trace),
    )


#: SHA-256 of each (topology, constrained) run, see ``_walks_digest``.
WALKS_PINS = {
    ("cycle:16", False): "75d6827b9b7fb4e608eed4e03de4c5808e1b677a6bbfced1adfc69cc44ec7a4e",
    ("cycle:16", True): "249f432ffd4204096f4007e3f31b86dda92e66d0badd618e37fd681e1f0ed1bd",
    ("star:16", False): "cb246930598c39e01ef4991944aabaf0a49d4ad9ceb33a3f93b0afa1c4954fe2",
    ("star:16", True): "31e417b030d49329d3c01c7c77ae8b06734d4b08e1eadff4be9cea4424ca7c83",
    ("torus:8x8", False): "e9f6f40c99c5b6943985ad1da9520a9d9c3e355ee8bcd51867fab661a430c62d",
    ("torus:8x8", True): "52073876dd0f8c783b54837fbb0cb56c39ebb2b39b7fdce8bc3785e34fc47df5",
}


# ----------------------------------------------------------------------
# FaultyProcess
# ----------------------------------------------------------------------
def _faulty_digest(adversary):
    rng = np.random.default_rng(SEED)
    faulty = FaultyProcess(
        16, adversary=adversary, schedule=FaultSchedule.every(20), seed=rng
    )
    trace = BatchedTraceRecorder()
    result = faulty.run(120, observers=trace)
    return _digest(
        rng,
        result.rounds,
        result.fault_rounds,
        result.max_load_seen,
        result.recovery_times,
        result.final_configuration.loads,
        faulty.process.loads,
        *_trace(trace),
    )


#: SHA-256 of each adversary's run, see ``_faulty_digest``.
FAULTY_PINS = {
    "concentrate": "ca5086341f97e03f07547e498461c623dab0803123e25044ff55ab4a9b043fb0",
    "pyramid": "47eb85a75c8e784b1474189bc3bc72a6170a141557c8fb98c5f276587ab50c6f",
    "shuffle": "b00bc8ef5734a3026249d2ea070ed168d226a09d89efada629a68d5a5ddbdc37",
    "target_heaviest": "8db501d58a2e8009ace91c05896fd23f8da85b366183e26128e56ae1074fe556",
}


@pytest.mark.parametrize("n, start, op", sorted(RBB_PINS))
def test_rbb_stream_is_pinned(n, start, op):
    assert _rbb_digest(n, start, op) == RBB_PINS[n, start, op]


@pytest.mark.parametrize("n, d", sorted(D_CHOICES_PINS))
def test_d_choices_stream_is_pinned(n, d):
    assert _d_choices_digest(n, d) == D_CHOICES_PINS[n, d]


@pytest.mark.parametrize("spec, constrained", sorted(WALKS_PINS))
def test_walks_stream_is_pinned(spec, constrained):
    assert _walks_digest(spec, constrained) == WALKS_PINS[spec, constrained]


@pytest.mark.parametrize("adversary", sorted(FAULTY_PINS))
def test_faulty_stream_is_pinned(adversary):
    assert _faulty_digest(adversary) == FAULTY_PINS[adversary]
