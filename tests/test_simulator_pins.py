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
from repro.baselines.birth_death import IndependentThrowsProcess
from repro.baselines.d_choices import DChoicesProcess
from repro.core.config import LoadConfiguration
from repro.core.process import RepeatedBallsIntoBins
from repro.core.tetris import ProbabilisticTetris, TetrisProcess
from repro.core.token_process import TokenRepeatedBallsIntoBins
from repro.graphs import ConstrainedParallelWalks, resolve_topology
from repro.metrics import BatchedTraceRecorder
from repro.traversal import MultiTokenTraversal

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


# ----------------------------------------------------------------------
# The Tetris family: TetrisProcess, ProbabilisticTetris,
# IndependentThrowsProcess
# ----------------------------------------------------------------------
def _tetris_result(result):
    """Every field of a ``TetrisResult`` or ``IndependentThrowsResult``."""
    return [
        result.rounds,
        result.final_configuration.loads,
        result.max_load_seen,
        getattr(result, "all_bins_emptied_by", None),
    ]


def _tetris_digest(cls, n, start, op, **kwargs):
    """Digest of one op on ``cls(n, ...)``: ``run200``, ``steps50`` or
    ``reset_run`` (run, reset to one ball per bin, run, reset to the
    start, run), with a stride-1 trace on every run."""
    rng = np.random.default_rng(SEED)
    initial = getattr(LoadConfiguration, start)(n)
    process = cls(n, initial=initial, seed=rng, **kwargs)
    trace = BatchedTraceRecorder()
    values = []
    if op == "run200":
        values += _tetris_result(process.run(200, observers=trace))
    elif op == "steps50":
        for _ in range(50):
            values.append(np.array(process.step()))
    elif op == "reset_run":
        values += _tetris_result(process.run(20, observers=trace))
        process.reset()
        values += _tetris_result(process.run(100, observers=trace))
        process.reset(initial)
        values += _tetris_result(process.run(50, observers=trace))
    values += [process.loads, process.round_index, *_trace(trace)]
    return _digest(rng, *values)


def _tetris_arrivals(n, arrivals):
    return {"default": None, "zero": 0, "n": n}[arrivals]


#: SHA-256 of each (n, arrivals, start, op) TetrisProcess run, see
#: ``_tetris_digest``; ``arrivals`` is the default floor(3n/4), 0 or n.
TETRIS_PINS = {
    (1, "default", "all_in_one", "reset_run"): "bf38a919650d994aa868343e106f0c093cf446a93d0e9638ce04b31fb4b26cf3",
    (1, "default", "all_in_one", "run200"): "79da34a6a6b132b60a3794e8e0f236212e716c5ee9bcca504a05e1959b8c1623",
    (1, "default", "all_in_one", "steps50"): "bfe1cea6d5060be8113c7b4e4f04f050340efc2eccd8ddec03cddac54f9afc78",
    (1, "default", "balanced", "reset_run"): "bf38a919650d994aa868343e106f0c093cf446a93d0e9638ce04b31fb4b26cf3",
    (1, "default", "balanced", "run200"): "79da34a6a6b132b60a3794e8e0f236212e716c5ee9bcca504a05e1959b8c1623",
    (1, "default", "balanced", "steps50"): "bfe1cea6d5060be8113c7b4e4f04f050340efc2eccd8ddec03cddac54f9afc78",
    (1, "default", "pyramid", "reset_run"): "bf38a919650d994aa868343e106f0c093cf446a93d0e9638ce04b31fb4b26cf3",
    (1, "default", "pyramid", "run200"): "79da34a6a6b132b60a3794e8e0f236212e716c5ee9bcca504a05e1959b8c1623",
    (1, "default", "pyramid", "steps50"): "bfe1cea6d5060be8113c7b4e4f04f050340efc2eccd8ddec03cddac54f9afc78",
    (1, "n", "all_in_one", "reset_run"): "ddf117b6686939ae00ba8f088c37633ab74e4a111cc85552d23765713efca28b",
    (1, "n", "all_in_one", "run200"): "9f61a27aed11108c8426ed6a836957d02a5d5f037d7a3be8b83c4ff9dceae167",
    (1, "n", "all_in_one", "steps50"): "cf90917dd57f418fc18b09d31ee5e398d54aa3bf3e67d045fe9ad2640ed0a99a",
    (1, "n", "balanced", "reset_run"): "ddf117b6686939ae00ba8f088c37633ab74e4a111cc85552d23765713efca28b",
    (1, "n", "balanced", "run200"): "9f61a27aed11108c8426ed6a836957d02a5d5f037d7a3be8b83c4ff9dceae167",
    (1, "n", "balanced", "steps50"): "cf90917dd57f418fc18b09d31ee5e398d54aa3bf3e67d045fe9ad2640ed0a99a",
    (1, "n", "pyramid", "reset_run"): "ddf117b6686939ae00ba8f088c37633ab74e4a111cc85552d23765713efca28b",
    (1, "n", "pyramid", "run200"): "9f61a27aed11108c8426ed6a836957d02a5d5f037d7a3be8b83c4ff9dceae167",
    (1, "n", "pyramid", "steps50"): "cf90917dd57f418fc18b09d31ee5e398d54aa3bf3e67d045fe9ad2640ed0a99a",
    (1, "zero", "all_in_one", "reset_run"): "bf38a919650d994aa868343e106f0c093cf446a93d0e9638ce04b31fb4b26cf3",
    (1, "zero", "all_in_one", "run200"): "79da34a6a6b132b60a3794e8e0f236212e716c5ee9bcca504a05e1959b8c1623",
    (1, "zero", "all_in_one", "steps50"): "bfe1cea6d5060be8113c7b4e4f04f050340efc2eccd8ddec03cddac54f9afc78",
    (1, "zero", "balanced", "reset_run"): "bf38a919650d994aa868343e106f0c093cf446a93d0e9638ce04b31fb4b26cf3",
    (1, "zero", "balanced", "run200"): "79da34a6a6b132b60a3794e8e0f236212e716c5ee9bcca504a05e1959b8c1623",
    (1, "zero", "balanced", "steps50"): "bfe1cea6d5060be8113c7b4e4f04f050340efc2eccd8ddec03cddac54f9afc78",
    (1, "zero", "pyramid", "reset_run"): "bf38a919650d994aa868343e106f0c093cf446a93d0e9638ce04b31fb4b26cf3",
    (1, "zero", "pyramid", "run200"): "79da34a6a6b132b60a3794e8e0f236212e716c5ee9bcca504a05e1959b8c1623",
    (1, "zero", "pyramid", "steps50"): "bfe1cea6d5060be8113c7b4e4f04f050340efc2eccd8ddec03cddac54f9afc78",
    (16, "default", "all_in_one", "reset_run"): "737d25486b0e65f8bfffdfdb4e4a484692b2e31f901f91c562b9492f8d118cf8",
    (16, "default", "all_in_one", "run200"): "94bd4f63aa60671af3260aaa77038782b7a72f2ef7f9aea861dc6edbf7813f7f",
    (16, "default", "all_in_one", "steps50"): "0e5be3ce1f6b483db35f88753551b4538b87a37ffd163725961262e053d7986c",
    (16, "default", "balanced", "reset_run"): "b4f0d910421511e40a65fb8d3bb213aaaba21723a899f799aca335ba6edef380",
    (16, "default", "balanced", "run200"): "ecf37504cdb3fa868053057b92b6fcbc626a18cb6320bcd39058f739dc1434a2",
    (16, "default", "balanced", "steps50"): "4e6dc392869bc650a70dd0913eb7a2c5604bd82b5c1030a976d80e7e93f43c13",
    (16, "default", "pyramid", "reset_run"): "a865665a690832d205074c7e0d90396590b890b99fd923c73d48cf5eeec7762b",
    (16, "default", "pyramid", "run200"): "960f22419ac4fd5297609f304f0f941d8e9561de3a4ca314d18de8bd60960294",
    (16, "default", "pyramid", "steps50"): "4882f18b5d42be2c795bac76f7fa9a5de6420b51feaab8f36d723e846cf10161",
    (16, "n", "all_in_one", "reset_run"): "d250076970b3824f4ccc930c0dff550f042882a56f772d76305f113024554370",
    (16, "n", "all_in_one", "run200"): "66962e44611fcf696d36a18a7644d2423497acfbf1386ed788477f53a443bbbd",
    (16, "n", "all_in_one", "steps50"): "4fbfc9cda2b61670d28d28f9b3fde9a6963d6f2005e5a6b7c7989beeffc85924",
    (16, "n", "balanced", "reset_run"): "a56e6cd4c0164f4e972dd3901871bf54356db9c58b871258934022de555b3ae1",
    (16, "n", "balanced", "run200"): "1c375475b0bb9234a99e053eaf790b967264b87c19ae06266810722d295c13d5",
    (16, "n", "balanced", "steps50"): "5ecbe7d98324bb66e6814fefb291136be3fcb76c920c3e990d33f550d33907e1",
    (16, "n", "pyramid", "reset_run"): "7e42c5a065008a61de34c7afd6751ea56cffce73c6c26ce83df217971f38bbc4",
    (16, "n", "pyramid", "run200"): "911f5140f00d24ca4a3436cb3dc695f2f54b8670f4f26b0c3c4ff2d0392b342c",
    (16, "n", "pyramid", "steps50"): "536cf644710f63f1ed22452580a4889dc597a4f06228d0490fb96d7b3984cd95",
    (16, "zero", "all_in_one", "reset_run"): "8a2afd12a6ffc882b8ed4098f63c39617b814d09a4984d916093ce0afd4454b7",
    (16, "zero", "all_in_one", "run200"): "a6a31d9886615594efca080498cd88eb664a44a584489eea8f632fb811765b74",
    (16, "zero", "all_in_one", "steps50"): "d3d654c1b283975c5a6a787ce4b1fa6af693b5ed1c4076f2f349b12770d7f4fc",
    (16, "zero", "balanced", "reset_run"): "4cb92755201e24dabeeba08ef5bbbb3f490a669104e74ecf1aabbccd99634e02",
    (16, "zero", "balanced", "run200"): "99ac3a9a486f88914370ce5150412ee6b6fe1e07c4ad5f4b5870979cd83130fc",
    (16, "zero", "balanced", "steps50"): "efa3a1f2bf537b8d673fabe3f82e9be85d6d0d75e25fa48adeb09c23182d88de",
    (16, "zero", "pyramid", "reset_run"): "7cf98305411fbc2fb3aa2d2d6a8263b138b7deb161bcff929b034608df248dd3",
    (16, "zero", "pyramid", "run200"): "02e7ac060a025595b21c178fa19522fe746f7d33b3bd8075b7303d2a65a22cb1",
    (16, "zero", "pyramid", "steps50"): "903c2b30be790427ea939393bcf77806ce0d3131f42b71eb918bc42457d60756",
    (37, "default", "all_in_one", "reset_run"): "3f5a931dcea1da9c1881ae2173f9e82ab9e18349a093dc31b8963de5bc1b8da0",
    (37, "default", "all_in_one", "run200"): "e31c9d67acd2e46e2070aacdcdea2388db918789d965dc0c13b2c4c4dbd7b350",
    (37, "default", "all_in_one", "steps50"): "9bbe186531907fb973c13a4a518fb1900562858ea0c3bfc4e4241baba3e3f077",
    (37, "default", "balanced", "reset_run"): "81c71330c3a0765a57f53e6993feb613796934b6b7e8af3193f778f185f62bd6",
    (37, "default", "balanced", "run200"): "3fc02e40ee390edac009ecf4df3dcecd95a0fc44cfebb0957dd06a589be60660",
    (37, "default", "balanced", "steps50"): "0495a6bbc2c5d7358f4522694966d05381d3a584b2c2118a8b4bc728fb407cc6",
    (37, "default", "pyramid", "reset_run"): "72b124d8b008a4a3250671bacefa1514fd87efa23de8098c1cc9cbd754b48dc9",
    (37, "default", "pyramid", "run200"): "27490122650ed24337ec003e58fd8897e1de84b55d7b84f360340e4085fd9b00",
    (37, "default", "pyramid", "steps50"): "ba6e6f13e10c7490440943da709407bad603554c708a739f3f4c654a79244b58",
    (37, "n", "all_in_one", "reset_run"): "9bf15d883906933848120e40d791c4c1050a89cd3f32bf2219a6f2aa51b755ff",
    (37, "n", "all_in_one", "run200"): "9c7593d93a0f436947c7d41d68fac38201fabbb01d2884f96d7267349f4cf6d2",
    (37, "n", "all_in_one", "steps50"): "c89dc9d988a51fcc0821c771d4925d3f92ee296c4e57141095beb079abcfd8b4",
    (37, "n", "balanced", "reset_run"): "352182966875ba466177fc97ada358694a22e90ea5504de9a878c202337922ae",
    (37, "n", "balanced", "run200"): "57865a9727f298ed841e9032f3c0282cc75a7a16be466ee2af495cee88d07f5c",
    (37, "n", "balanced", "steps50"): "360c5daecdf6316d9d315c945c10a6afc43241115f378fc09496eca5de585a00",
    (37, "n", "pyramid", "reset_run"): "7b8d36ab77965298603f490ee576bff99e5bfcca363e132b0b7ddab4572df874",
    (37, "n", "pyramid", "run200"): "e15e334afba1341c08901261e4b36c8b5f10d8d40c0a09f0335b9c32691c1a60",
    (37, "n", "pyramid", "steps50"): "5fb8d60e15e631b3b5981292592e206fe93a5a343a38de51cc66bb0c66d0c938",
    (37, "zero", "all_in_one", "reset_run"): "208c8c51f4f6e41780b276dd6253b22f3e7c00c00a6187f39d6228fd876f872f",
    (37, "zero", "all_in_one", "run200"): "ba93f34c9cfef0c3870afe00ca7284cfd6c635ea232b0b2c55724e72c8c86d8d",
    (37, "zero", "all_in_one", "steps50"): "1ac019692b196c9ec9679af52916f892e5f49f933dc2861625a5e0cacbeaf93e",
    (37, "zero", "balanced", "reset_run"): "6c517401e349fb2fd1e95a65fe7e37889e80c45b2919e42002532a12a833f892",
    (37, "zero", "balanced", "run200"): "7e895f5985dd4a4d56042ef6463b0047e58b6166556f0c572dfd1292ec0d54fb",
    (37, "zero", "balanced", "steps50"): "2bb232e882523ffe7538ca26ab65374829f8291aaa22499624166bd5f1e87e7f",
    (37, "zero", "pyramid", "reset_run"): "c56b85be2057d5f287c3f321622e22da60a0a869dc1cac7a89c616711a99be88",
    (37, "zero", "pyramid", "run200"): "3ad3aeb88c35be2109151cb53b3d26faff4bfe81e4a27613337ae517d3816880",
    (37, "zero", "pyramid", "steps50"): "2f0b6c57c0758e05011af8e98886d29bfb46b66468b5b27188fdc29e29fa1c03",
}

#: SHA-256 of each (n, lam, op) ProbabilisticTetris run from the pyramid.
LEAKY_PINS = {
    (1, 0.0, "reset_run"): "bf38a919650d994aa868343e106f0c093cf446a93d0e9638ce04b31fb4b26cf3",
    (1, 0.0, "run200"): "79da34a6a6b132b60a3794e8e0f236212e716c5ee9bcca504a05e1959b8c1623",
    (1, 0.0, "steps50"): "bfe1cea6d5060be8113c7b4e4f04f050340efc2eccd8ddec03cddac54f9afc78",
    (1, 0.5, "reset_run"): "cc1817bfb5d97ccf4b3ebb31407fddbc4364252a91adec3fb49ed73f2da6a8fd",
    (1, 0.5, "run200"): "2bf007dd3ed60e24c11bbd5a6a66802dedf3630059195992f2243f54c7fde588",
    (1, 0.5, "steps50"): "24b36e0c0e368267d5c56466fd998edeeb48d1a177a002056adb2382da4c7b77",
    (1, 0.99, "reset_run"): "df0f8e7d0cb074b466e46b34a639b12079e1de8dc4cdb95f94f8376ef58bf640",
    (1, 0.99, "run200"): "a3e298bdea7f137edc1261a7272791be8930f115e9dfbfde3f3073af1926377a",
    (1, 0.99, "steps50"): "d7a8808b69f451a8c11cecdb90bd1a96399d03db7f494266a3131655ad65ebad",
    (16, 0.0, "reset_run"): "7cf98305411fbc2fb3aa2d2d6a8263b138b7deb161bcff929b034608df248dd3",
    (16, 0.0, "run200"): "02e7ac060a025595b21c178fa19522fe746f7d33b3bd8075b7303d2a65a22cb1",
    (16, 0.0, "steps50"): "903c2b30be790427ea939393bcf77806ce0d3131f42b71eb918bc42457d60756",
    (16, 0.5, "reset_run"): "f6b2bb6d5c72b6e13ddcf01913bf3e89efa7c4dfbf3ed59b6f9275b92dcde5a0",
    (16, 0.5, "run200"): "a79c98ef1a2f4b6be76c2a90b661ae7c45851f735a8e9f81e289edcd1a2fed89",
    (16, 0.5, "steps50"): "9ad951602e1a5922a76bfb3a74ed27cbd556dc1126d6dbc95e51087e6fdab2ac",
    (16, 0.99, "reset_run"): "700fbc7fa492f531b773b8d9b78a442b45dbc0d82c7807a974dae979dc0ff946",
    (16, 0.99, "run200"): "30288f60ca28c16257ed724301e9d7ff7e09e83276cf7385edd96573d9cd8c90",
    (16, 0.99, "steps50"): "a133e0cf4ea7c940c993a97f2fb1f2a206f8f7ae41805f6d328d0ec4df2555d2",
    (37, 0.0, "reset_run"): "c56b85be2057d5f287c3f321622e22da60a0a869dc1cac7a89c616711a99be88",
    (37, 0.0, "run200"): "3ad3aeb88c35be2109151cb53b3d26faff4bfe81e4a27613337ae517d3816880",
    (37, 0.0, "steps50"): "2f0b6c57c0758e05011af8e98886d29bfb46b66468b5b27188fdc29e29fa1c03",
    (37, 0.5, "reset_run"): "8eef66749462980f6d25fff9d20d67e231d006fd2eb5d6e40c5a4803fe707082",
    (37, 0.5, "run200"): "215fa2702d00a870cda784d5c15d5d59602d1e70cbbdeb77a8c54e961a38ddde",
    (37, 0.5, "steps50"): "f110a6538324c741b22b04e67141db3a73c5adc96d216640b83c7501e41a0cba",
    (37, 0.99, "reset_run"): "300f93f4f9e5276dea660203de4fc6d974b57875aa9f077814ec816b7313f54e",
    (37, 0.99, "run200"): "31613feffff3e6029347715f9644546edcca9113907b7af10c50696b50162c3a",
    (37, 0.99, "steps50"): "78e8bd28e71ced6fdee12583afe5edae4e6f70ca14b098a9159077a7fb0677f3",
}

#: SHA-256 of each (n, start) IndependentThrowsProcess ``run200``.
INDEPENDENT_PINS = {
    (1, "all_in_one"): "9f61a27aed11108c8426ed6a836957d02a5d5f037d7a3be8b83c4ff9dceae167",
    (1, "balanced"): "9f61a27aed11108c8426ed6a836957d02a5d5f037d7a3be8b83c4ff9dceae167",
    (1, "pyramid"): "9f61a27aed11108c8426ed6a836957d02a5d5f037d7a3be8b83c4ff9dceae167",
    (16, "all_in_one"): "66962e44611fcf696d36a18a7644d2423497acfbf1386ed788477f53a443bbbd",
    (16, "balanced"): "1c375475b0bb9234a99e053eaf790b967264b87c19ae06266810722d295c13d5",
    (16, "pyramid"): "911f5140f00d24ca4a3436cb3dc695f2f54b8670f4f26b0c3c4ff2d0392b342c",
    (37, "all_in_one"): "9c7593d93a0f436947c7d41d68fac38201fabbb01d2884f96d7267349f4cf6d2",
    (37, "balanced"): "57865a9727f298ed841e9032f3c0282cc75a7a16be466ee2af495cee88d07f5c",
    (37, "pyramid"): "e15e334afba1341c08901261e4b36c8b5f10d8d40c0a09f0335b9c32691c1a60",
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


@pytest.mark.parametrize("n, arrivals, start, op", sorted(TETRIS_PINS))
def test_tetris_stream_is_pinned(n, arrivals, start, op):
    arrivals_per_round = _tetris_arrivals(n, arrivals)
    digest = _tetris_digest(
        TetrisProcess, n, start, op, arrivals_per_round=arrivals_per_round
    )
    assert digest == TETRIS_PINS[n, arrivals, start, op]


@pytest.mark.parametrize("n, lam, op", sorted(LEAKY_PINS))
def test_probabilistic_tetris_stream_is_pinned(n, lam, op):
    digest = _tetris_digest(ProbabilisticTetris, n, "pyramid", op, lam=lam)
    assert digest == LEAKY_PINS[n, lam, op]


@pytest.mark.parametrize("n, start", sorted(INDEPENDENT_PINS))
def test_independent_throws_stream_is_pinned(n, start):
    digest = _tetris_digest(IndependentThrowsProcess, n, start, "run200")
    assert digest == INDEPENDENT_PINS[n, start]


# ----------------------------------------------------------------------
# The token family: TokenRepeatedBallsIntoBins, MultiTokenTraversal
# ----------------------------------------------------------------------
#: (op, track_visits) of each pinned token run: the three load-level ops
#: without visit tracking, two of them with it, and the two that need it.
TOKEN_OPS = (
    ("run200", False), ("steps50", False), ("run100_50", False),
    ("steps50", True), ("run100_50", True), ("stop", True), ("traversal", True),
)


def _token_result(result):
    """Every field of a ``TokenProcessResult``."""
    return [
        result.rounds,
        result.max_load_seen,
        result.min_empty_seen,
        result.cover_time,
        result.ball_cover_times,
        result.moves,
        result.min_moves,
    ]


def _token_digest(n, balls, discipline, start, op, track):
    """Digest of one op on a token process of ``n`` bins and ``n`` or
    ``2n + 3`` balls: ``run200``, ``steps50``, ``run100_50`` (``run(100)``
    then ``run(50)``), ``stop`` (``run(300, stop_when_covered=True)``) or
    ``traversal`` (``MultiTokenTraversal.run(300)``), with a stride-1
    trace on every run."""
    rng = np.random.default_rng(SEED)
    m = n if balls == "n" else 2 * n + 3
    initial = getattr(LoadConfiguration, start)(n, m)
    trace = BatchedTraceRecorder()
    values = []
    if op == "traversal":
        traversal = MultiTokenTraversal(
            n, n_tokens=m, discipline=discipline, initial=initial, seed=rng
        )
        outcome = traversal.run(300)
        values += [
            outcome.n_nodes,
            outcome.n_tokens,
            outcome.cover_time,
            outcome.token_cover_times,
            outcome.max_load_seen,
            outcome.rounds_simulated,
        ]
        process = traversal.process
    else:
        process = TokenRepeatedBallsIntoBins(
            n, n_balls=m, discipline=discipline, initial=initial,
            track_visits=track, seed=rng,
        )
    if op == "run200":
        values += _token_result(process.run(200, observers=trace))
    elif op == "steps50":
        for _ in range(50):
            values.append(np.array(process.step()))
    elif op == "run100_50":
        values += _token_result(process.run(100, observers=trace))
        values += _token_result(process.run(50, observers=trace))
    elif op == "stop":
        values += _token_result(
            process.run(300, observers=trace, stop_when_covered=True)
        )
    values += [
        process.ball_bins,
        process.moves,
        process.waiting_rounds,
        process.visited_counts,
        process.loads,
        process.round_index,
        *_trace(trace),
    ]
    return _digest(rng, *values)


#: SHA-256 of each (n, balls, discipline, start, op, track) token run, see
#: ``_token_digest``; ``balls`` is ``n`` or ``2n+3``.
TOKEN_PINS = {
    (1, "2n+3", "fifo", "all_in_one", "run100_50", False): "200dca6b083482827c6408e9508e518563cf5e96b02c4a72457d1a91f2406cd0",
    (1, "2n+3", "fifo", "all_in_one", "run100_50", True): "4066bdb6aef790c2e6ff271ae8720d99402b8e5a849449731d96386416990487",
    (1, "2n+3", "fifo", "all_in_one", "run200", False): "c10666989fb8be9ea33c94752bf305cb9c5104f46f0bd128bbde62f18a83e049",
    (1, "2n+3", "fifo", "all_in_one", "steps50", False): "a7a0c72451946190a1d6654a280197c7bf68c826dbf7911f4f764b6252eb71bc",
    (1, "2n+3", "fifo", "all_in_one", "steps50", True): "36d7dbb8ce37db5d9a2febedbb081aa290135076c5793bcb77b508e50b7a67cb",
    (1, "2n+3", "fifo", "all_in_one", "stop", True): "36e77c8aac63fd444a43fd2d22adefcc5ad7c8e3d3eadd8187ee0c8cbc27904a",
    (1, "2n+3", "fifo", "all_in_one", "traversal", True): "ddf56eae49975a8ae9519a96f2c7d74ba28343933424f62644e1882f52c7fa42",
    (1, "2n+3", "fifo", "balanced", "run100_50", False): "200dca6b083482827c6408e9508e518563cf5e96b02c4a72457d1a91f2406cd0",
    (1, "2n+3", "fifo", "balanced", "run100_50", True): "4066bdb6aef790c2e6ff271ae8720d99402b8e5a849449731d96386416990487",
    (1, "2n+3", "fifo", "balanced", "run200", False): "c10666989fb8be9ea33c94752bf305cb9c5104f46f0bd128bbde62f18a83e049",
    (1, "2n+3", "fifo", "balanced", "steps50", False): "a7a0c72451946190a1d6654a280197c7bf68c826dbf7911f4f764b6252eb71bc",
    (1, "2n+3", "fifo", "balanced", "steps50", True): "36d7dbb8ce37db5d9a2febedbb081aa290135076c5793bcb77b508e50b7a67cb",
    (1, "2n+3", "fifo", "balanced", "stop", True): "36e77c8aac63fd444a43fd2d22adefcc5ad7c8e3d3eadd8187ee0c8cbc27904a",
    (1, "2n+3", "fifo", "balanced", "traversal", True): "ddf56eae49975a8ae9519a96f2c7d74ba28343933424f62644e1882f52c7fa42",
    (1, "2n+3", "lifo", "all_in_one", "run100_50", False): "597c2230254c7e3f54e246df9814470a9dc168cd44d7bdab70e6f1c7d2a20ad3",
    (1, "2n+3", "lifo", "all_in_one", "run100_50", True): "df8e8f7d3ee2a055ef6bef034a5fc106b775b2ad4093a5fb7cda414e21b6d5ae",
    (1, "2n+3", "lifo", "all_in_one", "run200", False): "a587d86cec26f238519eb1994f4bc1ad23291f84a7590c02d733bf8037bf651f",
    (1, "2n+3", "lifo", "all_in_one", "steps50", False): "d3c7a98b96f5c20c366cef4509b8b336711a7a42c35e6a14854b29c340ff347a",
    (1, "2n+3", "lifo", "all_in_one", "steps50", True): "4c1bb8d3da4ee590e83b168a231bfd4400c3d0df9ab1294655fabbdc7aedca0a",
    (1, "2n+3", "lifo", "all_in_one", "stop", True): "5b812526feaf1437b5818fd7a31ce0fdaf8117c51cbf91672294dc632cb592bb",
    (1, "2n+3", "lifo", "all_in_one", "traversal", True): "647e3667f8c62b2b35fb0f9e48f39c2cdafe2c5884d974c40530a043c7a8835c",
    (1, "2n+3", "lifo", "balanced", "run100_50", False): "597c2230254c7e3f54e246df9814470a9dc168cd44d7bdab70e6f1c7d2a20ad3",
    (1, "2n+3", "lifo", "balanced", "run100_50", True): "df8e8f7d3ee2a055ef6bef034a5fc106b775b2ad4093a5fb7cda414e21b6d5ae",
    (1, "2n+3", "lifo", "balanced", "run200", False): "a587d86cec26f238519eb1994f4bc1ad23291f84a7590c02d733bf8037bf651f",
    (1, "2n+3", "lifo", "balanced", "steps50", False): "d3c7a98b96f5c20c366cef4509b8b336711a7a42c35e6a14854b29c340ff347a",
    (1, "2n+3", "lifo", "balanced", "steps50", True): "4c1bb8d3da4ee590e83b168a231bfd4400c3d0df9ab1294655fabbdc7aedca0a",
    (1, "2n+3", "lifo", "balanced", "stop", True): "5b812526feaf1437b5818fd7a31ce0fdaf8117c51cbf91672294dc632cb592bb",
    (1, "2n+3", "lifo", "balanced", "traversal", True): "647e3667f8c62b2b35fb0f9e48f39c2cdafe2c5884d974c40530a043c7a8835c",
    (1, "2n+3", "random", "all_in_one", "run100_50", False): "6fd764e57a88f0656f8dac4f554f6ca65fd381fef1d23af677c787ffd338ce95",
    (1, "2n+3", "random", "all_in_one", "run100_50", True): "78f574e58f83ae5a23d302fdc565ad6b5f69527803f6100d62934c1711da34eb",
    (1, "2n+3", "random", "all_in_one", "run200", False): "badcc9b7ac8c68c47039750dd39852532a10081888e425844668683d90047024",
    (1, "2n+3", "random", "all_in_one", "steps50", False): "d5c06a5a952a2ae601abc4af6e6847c40ea1a8e1dbf8a1b2695b7c15aa27798e",
    (1, "2n+3", "random", "all_in_one", "steps50", True): "05fdf8204c66655c664bf5fc66bbf981a043e030ae93e037d154eb39cfe3ee87",
    (1, "2n+3", "random", "all_in_one", "stop", True): "379259ad6f52a0ea9a0d24f8a0463ac8c86e8fec60bc8856f13eba6f9338d7ca",
    (1, "2n+3", "random", "all_in_one", "traversal", True): "19b75a98d03f8dfd8508dc54199f796ea52738a9f1adcacb104d8a7fa893a1bf",
    (1, "2n+3", "random", "balanced", "run100_50", False): "6fd764e57a88f0656f8dac4f554f6ca65fd381fef1d23af677c787ffd338ce95",
    (1, "2n+3", "random", "balanced", "run100_50", True): "78f574e58f83ae5a23d302fdc565ad6b5f69527803f6100d62934c1711da34eb",
    (1, "2n+3", "random", "balanced", "run200", False): "badcc9b7ac8c68c47039750dd39852532a10081888e425844668683d90047024",
    (1, "2n+3", "random", "balanced", "steps50", False): "d5c06a5a952a2ae601abc4af6e6847c40ea1a8e1dbf8a1b2695b7c15aa27798e",
    (1, "2n+3", "random", "balanced", "steps50", True): "05fdf8204c66655c664bf5fc66bbf981a043e030ae93e037d154eb39cfe3ee87",
    (1, "2n+3", "random", "balanced", "stop", True): "379259ad6f52a0ea9a0d24f8a0463ac8c86e8fec60bc8856f13eba6f9338d7ca",
    (1, "2n+3", "random", "balanced", "traversal", True): "19b75a98d03f8dfd8508dc54199f796ea52738a9f1adcacb104d8a7fa893a1bf",
    (1, "2n+3", "smallest_id", "all_in_one", "run100_50", False): "e4bd08dcd9f943b925c1a465bea2e181ea28463605449b61ea2bb70017da3383",
    (1, "2n+3", "smallest_id", "all_in_one", "run100_50", True): "cc7890718c94b553123080dab43f56425eb8a962c5a53c941b183e2c1854be6d",
    (1, "2n+3", "smallest_id", "all_in_one", "run200", False): "4bb58f2b3aa83e41b43ce9dda7911226f4e8b1a230e9d7fece327056a545885f",
    (1, "2n+3", "smallest_id", "all_in_one", "steps50", False): "bcdce18eac10de6a5ab3e7443c89254ff5ac72a3b19b65258a3d915c104c52e0",
    (1, "2n+3", "smallest_id", "all_in_one", "steps50", True): "55657c4d322df73bfe5fc1364916c4c3b678564021f2a0a19ad53bdcceca8863",
    (1, "2n+3", "smallest_id", "all_in_one", "stop", True): "36e77c8aac63fd444a43fd2d22adefcc5ad7c8e3d3eadd8187ee0c8cbc27904a",
    (1, "2n+3", "smallest_id", "all_in_one", "traversal", True): "ddf56eae49975a8ae9519a96f2c7d74ba28343933424f62644e1882f52c7fa42",
    (1, "2n+3", "smallest_id", "balanced", "run100_50", False): "e4bd08dcd9f943b925c1a465bea2e181ea28463605449b61ea2bb70017da3383",
    (1, "2n+3", "smallest_id", "balanced", "run100_50", True): "cc7890718c94b553123080dab43f56425eb8a962c5a53c941b183e2c1854be6d",
    (1, "2n+3", "smallest_id", "balanced", "run200", False): "4bb58f2b3aa83e41b43ce9dda7911226f4e8b1a230e9d7fece327056a545885f",
    (1, "2n+3", "smallest_id", "balanced", "steps50", False): "bcdce18eac10de6a5ab3e7443c89254ff5ac72a3b19b65258a3d915c104c52e0",
    (1, "2n+3", "smallest_id", "balanced", "steps50", True): "55657c4d322df73bfe5fc1364916c4c3b678564021f2a0a19ad53bdcceca8863",
    (1, "2n+3", "smallest_id", "balanced", "stop", True): "36e77c8aac63fd444a43fd2d22adefcc5ad7c8e3d3eadd8187ee0c8cbc27904a",
    (1, "2n+3", "smallest_id", "balanced", "traversal", True): "ddf56eae49975a8ae9519a96f2c7d74ba28343933424f62644e1882f52c7fa42",
    (1, "n", "fifo", "all_in_one", "run100_50", False): "4ec5b460d9b47c5dca6f3b29034759f10bc041a25ae526da198cc0d91c488f80",
    (1, "n", "fifo", "all_in_one", "run100_50", True): "c4f5339dbe069e0bc0c487b22354a5ec585fad0b8975e0d2598a483f459a164a",
    (1, "n", "fifo", "all_in_one", "run200", False): "d13cc329b5e1adb55a5ddd81e349fc03ecdef17905c791fe87f1b9ae15333839",
    (1, "n", "fifo", "all_in_one", "steps50", False): "c6fc3e6e5a0dd4c7105074b38435ab9d2b97aae6e80355ba4976dfa00cbeed66",
    (1, "n", "fifo", "all_in_one", "steps50", True): "970d254862a32c517ec92a050875828d614f5ef5eaf1066617654d70eb1a708a",
    (1, "n", "fifo", "all_in_one", "stop", True): "79f9c217d6232255bdb0263cecdee6bb8540b3de105447c4fd6f8ba9b288a10b",
    (1, "n", "fifo", "all_in_one", "traversal", True): "215f553c4e68bd4b980126daac50da246da02d2cfb15be84c46375ecf5564f6f",
    (1, "n", "fifo", "balanced", "run100_50", False): "4ec5b460d9b47c5dca6f3b29034759f10bc041a25ae526da198cc0d91c488f80",
    (1, "n", "fifo", "balanced", "run100_50", True): "c4f5339dbe069e0bc0c487b22354a5ec585fad0b8975e0d2598a483f459a164a",
    (1, "n", "fifo", "balanced", "run200", False): "d13cc329b5e1adb55a5ddd81e349fc03ecdef17905c791fe87f1b9ae15333839",
    (1, "n", "fifo", "balanced", "steps50", False): "c6fc3e6e5a0dd4c7105074b38435ab9d2b97aae6e80355ba4976dfa00cbeed66",
    (1, "n", "fifo", "balanced", "steps50", True): "970d254862a32c517ec92a050875828d614f5ef5eaf1066617654d70eb1a708a",
    (1, "n", "fifo", "balanced", "stop", True): "79f9c217d6232255bdb0263cecdee6bb8540b3de105447c4fd6f8ba9b288a10b",
    (1, "n", "fifo", "balanced", "traversal", True): "215f553c4e68bd4b980126daac50da246da02d2cfb15be84c46375ecf5564f6f",
    (1, "n", "lifo", "all_in_one", "run100_50", False): "4ec5b460d9b47c5dca6f3b29034759f10bc041a25ae526da198cc0d91c488f80",
    (1, "n", "lifo", "all_in_one", "run100_50", True): "c4f5339dbe069e0bc0c487b22354a5ec585fad0b8975e0d2598a483f459a164a",
    (1, "n", "lifo", "all_in_one", "run200", False): "d13cc329b5e1adb55a5ddd81e349fc03ecdef17905c791fe87f1b9ae15333839",
    (1, "n", "lifo", "all_in_one", "steps50", False): "c6fc3e6e5a0dd4c7105074b38435ab9d2b97aae6e80355ba4976dfa00cbeed66",
    (1, "n", "lifo", "all_in_one", "steps50", True): "970d254862a32c517ec92a050875828d614f5ef5eaf1066617654d70eb1a708a",
    (1, "n", "lifo", "all_in_one", "stop", True): "79f9c217d6232255bdb0263cecdee6bb8540b3de105447c4fd6f8ba9b288a10b",
    (1, "n", "lifo", "all_in_one", "traversal", True): "215f553c4e68bd4b980126daac50da246da02d2cfb15be84c46375ecf5564f6f",
    (1, "n", "lifo", "balanced", "run100_50", False): "4ec5b460d9b47c5dca6f3b29034759f10bc041a25ae526da198cc0d91c488f80",
    (1, "n", "lifo", "balanced", "run100_50", True): "c4f5339dbe069e0bc0c487b22354a5ec585fad0b8975e0d2598a483f459a164a",
    (1, "n", "lifo", "balanced", "run200", False): "d13cc329b5e1adb55a5ddd81e349fc03ecdef17905c791fe87f1b9ae15333839",
    (1, "n", "lifo", "balanced", "steps50", False): "c6fc3e6e5a0dd4c7105074b38435ab9d2b97aae6e80355ba4976dfa00cbeed66",
    (1, "n", "lifo", "balanced", "steps50", True): "970d254862a32c517ec92a050875828d614f5ef5eaf1066617654d70eb1a708a",
    (1, "n", "lifo", "balanced", "stop", True): "79f9c217d6232255bdb0263cecdee6bb8540b3de105447c4fd6f8ba9b288a10b",
    (1, "n", "lifo", "balanced", "traversal", True): "215f553c4e68bd4b980126daac50da246da02d2cfb15be84c46375ecf5564f6f",
    (1, "n", "random", "all_in_one", "run100_50", False): "4ec5b460d9b47c5dca6f3b29034759f10bc041a25ae526da198cc0d91c488f80",
    (1, "n", "random", "all_in_one", "run100_50", True): "c4f5339dbe069e0bc0c487b22354a5ec585fad0b8975e0d2598a483f459a164a",
    (1, "n", "random", "all_in_one", "run200", False): "d13cc329b5e1adb55a5ddd81e349fc03ecdef17905c791fe87f1b9ae15333839",
    (1, "n", "random", "all_in_one", "steps50", False): "c6fc3e6e5a0dd4c7105074b38435ab9d2b97aae6e80355ba4976dfa00cbeed66",
    (1, "n", "random", "all_in_one", "steps50", True): "970d254862a32c517ec92a050875828d614f5ef5eaf1066617654d70eb1a708a",
    (1, "n", "random", "all_in_one", "stop", True): "79f9c217d6232255bdb0263cecdee6bb8540b3de105447c4fd6f8ba9b288a10b",
    (1, "n", "random", "all_in_one", "traversal", True): "215f553c4e68bd4b980126daac50da246da02d2cfb15be84c46375ecf5564f6f",
    (1, "n", "random", "balanced", "run100_50", False): "4ec5b460d9b47c5dca6f3b29034759f10bc041a25ae526da198cc0d91c488f80",
    (1, "n", "random", "balanced", "run100_50", True): "c4f5339dbe069e0bc0c487b22354a5ec585fad0b8975e0d2598a483f459a164a",
    (1, "n", "random", "balanced", "run200", False): "d13cc329b5e1adb55a5ddd81e349fc03ecdef17905c791fe87f1b9ae15333839",
    (1, "n", "random", "balanced", "steps50", False): "c6fc3e6e5a0dd4c7105074b38435ab9d2b97aae6e80355ba4976dfa00cbeed66",
    (1, "n", "random", "balanced", "steps50", True): "970d254862a32c517ec92a050875828d614f5ef5eaf1066617654d70eb1a708a",
    (1, "n", "random", "balanced", "stop", True): "79f9c217d6232255bdb0263cecdee6bb8540b3de105447c4fd6f8ba9b288a10b",
    (1, "n", "random", "balanced", "traversal", True): "215f553c4e68bd4b980126daac50da246da02d2cfb15be84c46375ecf5564f6f",
    (1, "n", "smallest_id", "all_in_one", "run100_50", False): "4ec5b460d9b47c5dca6f3b29034759f10bc041a25ae526da198cc0d91c488f80",
    (1, "n", "smallest_id", "all_in_one", "run100_50", True): "c4f5339dbe069e0bc0c487b22354a5ec585fad0b8975e0d2598a483f459a164a",
    (1, "n", "smallest_id", "all_in_one", "run200", False): "d13cc329b5e1adb55a5ddd81e349fc03ecdef17905c791fe87f1b9ae15333839",
    (1, "n", "smallest_id", "all_in_one", "steps50", False): "c6fc3e6e5a0dd4c7105074b38435ab9d2b97aae6e80355ba4976dfa00cbeed66",
    (1, "n", "smallest_id", "all_in_one", "steps50", True): "970d254862a32c517ec92a050875828d614f5ef5eaf1066617654d70eb1a708a",
    (1, "n", "smallest_id", "all_in_one", "stop", True): "79f9c217d6232255bdb0263cecdee6bb8540b3de105447c4fd6f8ba9b288a10b",
    (1, "n", "smallest_id", "all_in_one", "traversal", True): "215f553c4e68bd4b980126daac50da246da02d2cfb15be84c46375ecf5564f6f",
    (1, "n", "smallest_id", "balanced", "run100_50", False): "4ec5b460d9b47c5dca6f3b29034759f10bc041a25ae526da198cc0d91c488f80",
    (1, "n", "smallest_id", "balanced", "run100_50", True): "c4f5339dbe069e0bc0c487b22354a5ec585fad0b8975e0d2598a483f459a164a",
    (1, "n", "smallest_id", "balanced", "run200", False): "d13cc329b5e1adb55a5ddd81e349fc03ecdef17905c791fe87f1b9ae15333839",
    (1, "n", "smallest_id", "balanced", "steps50", False): "c6fc3e6e5a0dd4c7105074b38435ab9d2b97aae6e80355ba4976dfa00cbeed66",
    (1, "n", "smallest_id", "balanced", "steps50", True): "970d254862a32c517ec92a050875828d614f5ef5eaf1066617654d70eb1a708a",
    (1, "n", "smallest_id", "balanced", "stop", True): "79f9c217d6232255bdb0263cecdee6bb8540b3de105447c4fd6f8ba9b288a10b",
    (1, "n", "smallest_id", "balanced", "traversal", True): "215f553c4e68bd4b980126daac50da246da02d2cfb15be84c46375ecf5564f6f",
    (16, "2n+3", "fifo", "all_in_one", "run100_50", False): "7e880ae75dedb381bc38ca2ec9de0a15e535ed5abc87e33836b83281493639e9",
    (16, "2n+3", "fifo", "all_in_one", "run100_50", True): "a2a63ea5779d06ca3ded10c2deef30b675c1063f0d11e7f81930986f9e082838",
    (16, "2n+3", "fifo", "all_in_one", "run200", False): "30f18d7ba8bb215b1aaa9ff27b854ca36f612c50d68bb0c11cbc06c591add4e9",
    (16, "2n+3", "fifo", "all_in_one", "steps50", False): "7a6f65fe461c28f694b04d8ce04b4d93c22706b989678efadc16edaeba09c997",
    (16, "2n+3", "fifo", "all_in_one", "steps50", True): "a4e41876bb34a67b906494116ff155db3a9f04fed2c84f01ac553e6483099bd1",
    (16, "2n+3", "fifo", "all_in_one", "stop", True): "46a836a0ff205e50f57dd55c28277bc14413718e2fd5fcd20fcdae886dd8bfd6",
    (16, "2n+3", "fifo", "all_in_one", "traversal", True): "4b4ba55415a13d15d626266fae62ea6015e587a539fb7db29a104c2bddfbc931",
    (16, "2n+3", "fifo", "balanced", "run100_50", False): "3339f2439213d98af4653aa1580bedc9e75254ac51d41ef7283203c4b9fc74ff",
    (16, "2n+3", "fifo", "balanced", "run100_50", True): "7db57f88d95827ca32e958f82249b49bf7be0ea5da261bce26024668bd106786",
    (16, "2n+3", "fifo", "balanced", "run200", False): "d37cc886fd7728d982427769957da2d90b35abf8978fb544e32c5c7510e6b5ee",
    (16, "2n+3", "fifo", "balanced", "steps50", False): "93dee5a42b06b39a38837953945d8b8e0c2ff1e62b8b8395dd2e8933dfd4c84e",
    (16, "2n+3", "fifo", "balanced", "steps50", True): "9e8458d2ff19739cfb348dd2c66a5b68c0f9a604dd3d18f09c522b0f20e6d835",
    (16, "2n+3", "fifo", "balanced", "stop", True): "86328bd6a4ba4d38480e63960ea895e1223b6019494d91ccc9c37aef9de05459",
    (16, "2n+3", "fifo", "balanced", "traversal", True): "50f72f73a052909925003b04f870f3ba233f6e31506aa7454836673a40121a00",
    (16, "2n+3", "lifo", "all_in_one", "run100_50", False): "6cddd82c488446d5df392db8843a4694b215a35ee6bad0e902571ded9633f486",
    (16, "2n+3", "lifo", "all_in_one", "run100_50", True): "9ddb2c8449bf83721444e3d1fbc1f68a970d547fb1864c3f526a81951e330d15",
    (16, "2n+3", "lifo", "all_in_one", "run200", False): "eeded95c89a84677b914fc82ba651a92797c8abb21bdbaf6029eb759e7902459",
    (16, "2n+3", "lifo", "all_in_one", "steps50", False): "c4fed087a01c7054545858f4e9e354e5300e990ea0fcf2d28947eb4764893da1",
    (16, "2n+3", "lifo", "all_in_one", "steps50", True): "9ffae4e2de9de02c89fb3dcc0608ed5799ddc1376e0ab48be7df683bfb5cb45a",
    (16, "2n+3", "lifo", "all_in_one", "stop", True): "63975398d4e8c30e146540f68c575556d2688e7053ee0bb147e8b98e0a2c4c24",
    (16, "2n+3", "lifo", "all_in_one", "traversal", True): "76d3740c632a04ec35dbf6a3b1b1ae7d7ce5edfc8bb1a67c9db976f95ee6a7fe",
    (16, "2n+3", "lifo", "balanced", "run100_50", False): "e7b0f2785983192f3ebb8a08f59ab2be8a4d32c1cb3dd26fc40972089b639497",
    (16, "2n+3", "lifo", "balanced", "run100_50", True): "5c3a2434e9aa5ee9a1b5669a6630d2bcf529631232d649ce714ba52468815f02",
    (16, "2n+3", "lifo", "balanced", "run200", False): "7f0e4016f1f0373907ab6e4812156be3686e0743d2b35dd3c366cc85d8176da7",
    (16, "2n+3", "lifo", "balanced", "steps50", False): "b6cc695ef76ce12393a29dfd25ab19877cdb0886fb1cb1266918cef266018f26",
    (16, "2n+3", "lifo", "balanced", "steps50", True): "5e934629929244c46eaf10a2d739d38aed76361f67930224342f5d0119fffe88",
    (16, "2n+3", "lifo", "balanced", "stop", True): "73d6efe5d06c1f0ad6de38ead515fc3568facb3fe0f8cdd5801042243d24dec0",
    (16, "2n+3", "lifo", "balanced", "traversal", True): "08fd2efb022c7bf9db6aa0e07c47fe6017114d892f1473e7c94769bca985ed80",
    (16, "2n+3", "random", "all_in_one", "run100_50", False): "d65e5b7c4f9c7813c530a4efab27bd2b4c1e071eb6bb15994d29419b06dc72c2",
    (16, "2n+3", "random", "all_in_one", "run100_50", True): "4fdf3de4d7347957f30e798d1141659b239a52755740398e7de6506755ec83b2",
    (16, "2n+3", "random", "all_in_one", "run200", False): "0c7c957645cede7c0c964b7eb50834a3e2fa5f58db4ca4bb4417b697dc551aa3",
    (16, "2n+3", "random", "all_in_one", "steps50", False): "d605c322ba21c9957b59d149273f8e168eaaa8a9fc1cad61755a95e436df5dab",
    (16, "2n+3", "random", "all_in_one", "steps50", True): "434de39dc2cca2d401f09b53d389c75ad7029340e88149f3c0f5750e9080752d",
    (16, "2n+3", "random", "all_in_one", "stop", True): "56abcf33bc019d56047db2a4e2f669c764fe26cd37ec95e54d8955f3274faa3a",
    (16, "2n+3", "random", "all_in_one", "traversal", True): "ed56093ee67d43bb26230b8e3e1ef96621cf8a97fc6d5f7afbe4c781fff9485b",
    (16, "2n+3", "random", "balanced", "run100_50", False): "c2f7088cfde05ce4b9a45632932d45a1cc2aca3a99b55e734717f5b6ec901e4b",
    (16, "2n+3", "random", "balanced", "run100_50", True): "137b4c941824ce88b9c08a91bde8e55432dc0c8a4cd38616fa917acf34298681",
    (16, "2n+3", "random", "balanced", "run200", False): "9c5249adc3dc9bc5ab73be0ff5ff9dd711b28604842912e9d1be903584fb0c5e",
    (16, "2n+3", "random", "balanced", "steps50", False): "f4c5794a6aa7499b2ad738d06d70302669573b392a298d3a810fa11975614685",
    (16, "2n+3", "random", "balanced", "steps50", True): "392b1aa81a856cf4c6a9d0ca6a7289faf5602636248c8a5781d8740b2bb352cd",
    (16, "2n+3", "random", "balanced", "stop", True): "0c760139b1ab0e4d5ccb04780c3dab35420cdea296403e74fdceec88ecb534be",
    (16, "2n+3", "random", "balanced", "traversal", True): "dba5abe8e0e0e60d2d831a5d40302ee71169ed544806caa52d48a068d3de7efb",
    (16, "2n+3", "smallest_id", "all_in_one", "run100_50", False): "04e8c341a7571b796c36732741dfe2df2b50709f04e78d3eb97b3bb4ccf28a5f",
    (16, "2n+3", "smallest_id", "all_in_one", "run100_50", True): "556dc37f4a992be754f6edf38b4165aaf136dd5c3c6cf2e4a268260a55e8e6f0",
    (16, "2n+3", "smallest_id", "all_in_one", "run200", False): "b5bfed1d3d9921d693f4e424124f90714c00b69af68da293094b5185c7eea18b",
    (16, "2n+3", "smallest_id", "all_in_one", "steps50", False): "eda1cc122c7f6d7485615c93ceb48ae636b38d395452552ba1aba0036e5943fd",
    (16, "2n+3", "smallest_id", "all_in_one", "steps50", True): "9e35479c9136852ead11bf0a9dcc7fb351a1e39946fbb475edc4cfe6066187e8",
    (16, "2n+3", "smallest_id", "all_in_one", "stop", True): "cbee695eff3e246351497e9080b08312eefd5faecc2fd4c5510a1f0c1efdfa02",
    (16, "2n+3", "smallest_id", "all_in_one", "traversal", True): "0d2c56efc76ffc03e1cb8ec6fbddd0e029d66bcdff0489705aa2dd99e56ff7bc",
    (16, "2n+3", "smallest_id", "balanced", "run100_50", False): "c43730e11d60c41d527692282942c2d523cc6860448df22aebba68f981087afe",
    (16, "2n+3", "smallest_id", "balanced", "run100_50", True): "fec78b2efe420b57300fd0ea47a5bd087a28dcd433376c554c49935180b345b5",
    (16, "2n+3", "smallest_id", "balanced", "run200", False): "27c3591e92886642618736c91d1710e1efbca826b2088061ba8e314bc927fcde",
    (16, "2n+3", "smallest_id", "balanced", "steps50", False): "3c9ced1f927d4e92f1bfec48d286ab94b43920198d11f566b45134ebbba77d44",
    (16, "2n+3", "smallest_id", "balanced", "steps50", True): "c073390e5310f3a1560d1cee8e77d577500a8dbb5ed805aa6d3baed734832692",
    (16, "2n+3", "smallest_id", "balanced", "stop", True): "de2afdf754125fadf0437e4cbca101971ae76f48d0026b66aca0003d0ccc0fc1",
    (16, "2n+3", "smallest_id", "balanced", "traversal", True): "51756ad51300d876ca8c0fbee07030090304a58ec216d662e244839901f36cfe",
    (16, "n", "fifo", "all_in_one", "run100_50", False): "c58a6590366dae56af44f80ab65b74a25bcbc2d5273cec601c932c6fd43f5cca",
    (16, "n", "fifo", "all_in_one", "run100_50", True): "b7ce24d92915537cc50e18fbb8f9e0c8695d19b28088b1fc91f438b3e9d50e23",
    (16, "n", "fifo", "all_in_one", "run200", False): "de671d2b33094d9316bf8dc31e0e0be3a07256325b15063fa7713b678d35acb4",
    (16, "n", "fifo", "all_in_one", "steps50", False): "5ce2bab82ba04fecf8ec7d91c3fe1161b20c16f6507ad17866562891d6fef451",
    (16, "n", "fifo", "all_in_one", "steps50", True): "bc8079b5f56da4d2f7da1c26379cf583cf9075df15592173562f68724b6cf1ed",
    (16, "n", "fifo", "all_in_one", "stop", True): "a59a3a605a283974136b2da9b8ab6142eb7633841d22a1f1719ca8576ec2f004",
    (16, "n", "fifo", "all_in_one", "traversal", True): "979e8969a6b3caae404a6a31a7a28d8962349ec465329d36ec62634ed2df6f74",
    (16, "n", "fifo", "balanced", "run100_50", False): "2c7c010860c7558cd1e39b769c66127bc08d8046bc6fb2fd049795674f592f01",
    (16, "n", "fifo", "balanced", "run100_50", True): "8951f9cfa66ae033de3469570ce9173af32a4641577e263725b7a82061123924",
    (16, "n", "fifo", "balanced", "run200", False): "5e639264c425bcaead64ee174851ecaca6582abacd5993f4df35253001ea01c8",
    (16, "n", "fifo", "balanced", "steps50", False): "f4fc36c6dd1bc4b7fad8b28cd919d1d0678e605f9e79a4593cb20d5d76ecbe46",
    (16, "n", "fifo", "balanced", "steps50", True): "590826261e8e5c6341864295db8e98df0db695aca1db8682208961f9628b1731",
    (16, "n", "fifo", "balanced", "stop", True): "87a75890826e2063086ffda714c659707fc6a765556b7ae4801dd0a91eb6ddc1",
    (16, "n", "fifo", "balanced", "traversal", True): "f0c7858c491eb669d409dfd94f13918bda712c1d3ae72d0dc838bb9ed9436b96",
    (16, "n", "lifo", "all_in_one", "run100_50", False): "e3f61522dc39504dae059a6440a3f709b88ccc0c20b1e0b3eb7a51484a7368e9",
    (16, "n", "lifo", "all_in_one", "run100_50", True): "55455a167671a4bd8f7fb2f28fbe4acf868c190070919e285f23dcc513be1aae",
    (16, "n", "lifo", "all_in_one", "run200", False): "73bb1cd1e4a86ee472ac7717ed66589bd073bfa43ecac62d44a6eb2c88e61cff",
    (16, "n", "lifo", "all_in_one", "steps50", False): "6eee8f2d030b084c2a5a98d6aa1ed6653986f49af7393f91c1e7207212ea495e",
    (16, "n", "lifo", "all_in_one", "steps50", True): "d59cfecff5f7f803aeffeff21d04b94f22ea1a82202b07204c914307bd12b7e5",
    (16, "n", "lifo", "all_in_one", "stop", True): "7c0cc0e66080e4cacd9f96ec1c406005e446e1a98660ed28b4410e4f53ba2b82",
    (16, "n", "lifo", "all_in_one", "traversal", True): "d2d56b194d180ab093cc567a07cc8d7139f5ebdc71d07081b4d5b41eee80b821",
    (16, "n", "lifo", "balanced", "run100_50", False): "77d155ae9343ebc0025dd0f49d4f179eb0b065a13d3d018ff7ea4be8156d4a5a",
    (16, "n", "lifo", "balanced", "run100_50", True): "dccdb4f404239d89d9c889fe10ff0ea4a2f5db29e4a86b4d111894a48c2af4db",
    (16, "n", "lifo", "balanced", "run200", False): "e434ec1f5a393ef825ee1d9598d27391cea8ca614576565fe7829725eb3109bf",
    (16, "n", "lifo", "balanced", "steps50", False): "240cc76c2d5adbfbb34dadf242a5d1c294545cd6f30557575d5419598c2afbc0",
    (16, "n", "lifo", "balanced", "steps50", True): "93dbcc992f4ca4ed17d870540a568579ec602027a9665cac3195462cd54e287f",
    (16, "n", "lifo", "balanced", "stop", True): "6be4fe1baf0e767b91c927c9fa82f208a1dd084ecc9d3ebb51dc041dd29d0b72",
    (16, "n", "lifo", "balanced", "traversal", True): "cf5f97eb708e77a352b89b266777c5b83feaa305246efd68a3fb44b62f6053d0",
    (16, "n", "random", "all_in_one", "run100_50", False): "e0485a1916a4672fb2a4baf62f7d09c7c94c501fb40a959eefcd29f62e7dfb05",
    (16, "n", "random", "all_in_one", "run100_50", True): "b7ef5fb83b4ffbabd0f93ec8ef5bec5da68310eb76c46b20f69991243d106d5c",
    (16, "n", "random", "all_in_one", "run200", False): "f6622748d94de67318413a28ee2c6254dfebc4550336d57da100f2a79afa6463",
    (16, "n", "random", "all_in_one", "steps50", False): "971f9092602dea88d0349afb098457241d4e81b54f86590f98c7881f7841e14a",
    (16, "n", "random", "all_in_one", "steps50", True): "81840f979645170941d88588977496060ce0887f67c3318dea9890a863d455d1",
    (16, "n", "random", "all_in_one", "stop", True): "a60a1618f3a46a91c86403810b74b4597a84a6b59b05b1342ac10ff551d882e7",
    (16, "n", "random", "all_in_one", "traversal", True): "f32dbc7757a4e36f069dea5b38c73cf22bba4aabd91355751cb35ab68701e1e6",
    (16, "n", "random", "balanced", "run100_50", False): "f66670fcc82727f4f4b350a1975a069ac2954f96ba65abab4450e53c4998a4de",
    (16, "n", "random", "balanced", "run100_50", True): "b523a425a94ec2f44111f8b352cc3dba38e7097c4a19ebbc10b15b6f90e3b202",
    (16, "n", "random", "balanced", "run200", False): "dcf607a7683f62d35d0e170313524cbcd7e4d44aed96e05209c0740308150b57",
    (16, "n", "random", "balanced", "steps50", False): "e15afd96542d941457ccb8ee687bd3a1ddb107887272464cfe2adf2d61aa6f23",
    (16, "n", "random", "balanced", "steps50", True): "6d531d36baa1994c88989200624e0e03114d331fe17f3a9e63529d48db379f41",
    (16, "n", "random", "balanced", "stop", True): "cb67b6d3ffa8213c8306375e85c17ee34050a478a0b4bb9566eaca208b6236e3",
    (16, "n", "random", "balanced", "traversal", True): "1bfe0990811ee35c48a0ff07db6eeb3c9491f69583b6512ce68b7c52867300b9",
    (16, "n", "smallest_id", "all_in_one", "run100_50", False): "3181ed60fb0ab91d6e671c4d45c87dca368a1e0adb558e537fc3a8cb4bbc479c",
    (16, "n", "smallest_id", "all_in_one", "run100_50", True): "2903c370e65d71af3fca4993af4bbf62f4eb012ef0cb7582c350305c738a96a3",
    (16, "n", "smallest_id", "all_in_one", "run200", False): "0ed91a8c38de47f14fdcf4113db1b774bce471de19e9c28d731135050e3f50c9",
    (16, "n", "smallest_id", "all_in_one", "steps50", False): "77200066cdb53c16727931c1b70893412e139f4256f8bc185b7753311ef38aff",
    (16, "n", "smallest_id", "all_in_one", "steps50", True): "f7c7ebd69db3a7932954a43159f0bb05a9dd968dfd836d862b0b05c33455b5ac",
    (16, "n", "smallest_id", "all_in_one", "stop", True): "a89ca499e43769e34f4922030f7c20a31137d1f08078f7c7eda23c7300141aec",
    (16, "n", "smallest_id", "all_in_one", "traversal", True): "ab7c65b073100caa40daa0dd65bf79524fa9ed16c78a74dfa6bc92fbd4ebeb44",
    (16, "n", "smallest_id", "balanced", "run100_50", False): "d956306cc0a1b6f23f3d75d87a2480e6ab3fb5867dc4ef553eae4b86ed8d2638",
    (16, "n", "smallest_id", "balanced", "run100_50", True): "dda763c3bbb40ea7cfbd18c8bb5e023e0eee395e33ed3f4fe74551e227ae24e6",
    (16, "n", "smallest_id", "balanced", "run200", False): "609a271b7d5ed91b845e935d69f856f813c87a8b76ad62d4146e19621a5ab226",
    (16, "n", "smallest_id", "balanced", "steps50", False): "e80c30b0e5f61633fba99fa9a91f6eb9c0f8d86ba973baa004b91d7d6fdd5e1b",
    (16, "n", "smallest_id", "balanced", "steps50", True): "ad8fb63eb6ec171ee2f0a2111f79c103be8d1ca7502b8714603a974521f8a1c2",
    (16, "n", "smallest_id", "balanced", "stop", True): "904f7e27a1905729501b04007072e97af0470d3f5da04916a9786c293b1a62fe",
    (16, "n", "smallest_id", "balanced", "traversal", True): "c794b09dd5b36ee5da8f38f15ff5ac84863347ac81e4b050614e78b68138e560",
    (37, "2n+3", "fifo", "all_in_one", "run100_50", False): "62c7f54bde9c0cc362f77fadcca50c35d226bec31cc542a45a81cd63529872f9",
    (37, "2n+3", "fifo", "all_in_one", "run100_50", True): "7301560fdc1c8b32de4ceb250ad5cc84f52bb317c47bc5faf82df01e4504956e",
    (37, "2n+3", "fifo", "all_in_one", "run200", False): "1631747e0714dcc77f0a25ba3de2a9b1cf9382bb0bfab73bcf7323e63d38a227",
    (37, "2n+3", "fifo", "all_in_one", "steps50", False): "5c64ed919de346934dcd3076e9c7622c460279bed5db626c37af5ddfe46094d1",
    (37, "2n+3", "fifo", "all_in_one", "steps50", True): "79510814fd685360e1cf482a709dde6f35db58fe10b5493e1a3fbd9705eafd29",
    (37, "2n+3", "fifo", "all_in_one", "stop", True): "1cee903d407a02ad59a2d9c632df67d932b4e24b5c12041a0806ac8547f42eb6",
    (37, "2n+3", "fifo", "all_in_one", "traversal", True): "b4c3ff11f4ad2927d9ec34a8c95b7c61182bf69a63f73fe225476dda45b118c4",
    (37, "2n+3", "fifo", "balanced", "run100_50", False): "d63906d9eb92f28ae440f02dc555e8649ccfeb25e4f9da5d612cc718928f30fe",
    (37, "2n+3", "fifo", "balanced", "run100_50", True): "7ecb938053fc2283a564057875e42bbd1385ca2505a2558fb8f62d08064dc70d",
    (37, "2n+3", "fifo", "balanced", "run200", False): "8081c89d01716c416ebf18577086afd94fb68c68a94442209f396bc7a40bf3ad",
    (37, "2n+3", "fifo", "balanced", "steps50", False): "4bad793963a98eaa7daa14f18c52f30185742e296c585e25e704477c9d760ff3",
    (37, "2n+3", "fifo", "balanced", "steps50", True): "cbe208012c4515b145888d6b9dd99a943a211b5c37a6be8678872c13a4de5050",
    (37, "2n+3", "fifo", "balanced", "stop", True): "97a9e7b6fdfccc245713420e01483742ba85c9e585cf2c848b57cf988fc5de78",
    (37, "2n+3", "fifo", "balanced", "traversal", True): "74510ca93836da0c4372b6492b8f0f4152aa034c67761055c879a3ab32344acf",
    (37, "2n+3", "lifo", "all_in_one", "run100_50", False): "7079b62fb4746a1a8aaaf8b3ac6eab0672f482650db685c78970089d8dfb1107",
    (37, "2n+3", "lifo", "all_in_one", "run100_50", True): "e38487fac271b9a6ae07373a02c927a90944853c7bab609f574c364c3a631cd7",
    (37, "2n+3", "lifo", "all_in_one", "run200", False): "863dd5457daba03c78c6602052969796bae649c9eff0874721c062d43cac05b1",
    (37, "2n+3", "lifo", "all_in_one", "steps50", False): "d1d02a32131dcedaea415ca40d25d7c1540ca6c4d78cde7d3cc6c949efe78c64",
    (37, "2n+3", "lifo", "all_in_one", "steps50", True): "830b6b01d05b3811cb0cc35e2cdaed7b9578f5ec261bda6df8fb1caec1b3dcd0",
    (37, "2n+3", "lifo", "all_in_one", "stop", True): "1eccd370439d2479a557f21d1dc4972e49f1ec0f4314679596a4041b900ae2ba",
    (37, "2n+3", "lifo", "all_in_one", "traversal", True): "b28f54a828b299bf3e361b741335036da0178f753ab7cc12551fb10006766390",
    (37, "2n+3", "lifo", "balanced", "run100_50", False): "5bccce8bb2b17eff63cc79fa4e3c88c8b65ec3285d0bc3e914f4319fea3992f9",
    (37, "2n+3", "lifo", "balanced", "run100_50", True): "09ee63de8c170a9c6f7df5dcc0b24093bdede873e3c059e02ef1cb14a4abb224",
    (37, "2n+3", "lifo", "balanced", "run200", False): "adc7a890ef0e72aa7c1fd42125e62071745222515affd1e13f4c58a0c7bf5e2a",
    (37, "2n+3", "lifo", "balanced", "steps50", False): "293d2592df00ab651be019458671eb6624c2f157fba6c56d6f7047a5791bf51c",
    (37, "2n+3", "lifo", "balanced", "steps50", True): "0f3f5beac5fa50517bd11542f365aee86789deb23eca3897f157a038f7c361ee",
    (37, "2n+3", "lifo", "balanced", "stop", True): "129ca74716cce05b84f9de83d302b3a1c380dfde2983f88d29423d34ea4c2fbd",
    (37, "2n+3", "lifo", "balanced", "traversal", True): "6a9279e938d86de4e671d1de2632f94c091fd8ed6df53fc223f2de300f54566b",
    (37, "2n+3", "random", "all_in_one", "run100_50", False): "54c3ff39a74b6e9d5b19ae83d1124b2986cc8d800c751cf49d4394e847da240f",
    (37, "2n+3", "random", "all_in_one", "run100_50", True): "06587c2926836007f44bac8884ae08591d8f1ced15e88d50942441f17c4f7d21",
    (37, "2n+3", "random", "all_in_one", "run200", False): "8e52d58c16ccac4364479346e41193076c799dfeb700e7c5f44afad256c63905",
    (37, "2n+3", "random", "all_in_one", "steps50", False): "514b70db6a9cf2a6596bcf62b576d5029830eadf937b27bae98bf5e6f53230eb",
    (37, "2n+3", "random", "all_in_one", "steps50", True): "493787ecbfd79d11a9943f038b463df24ff0379e591a3bc855db97f6ede2f3b0",
    (37, "2n+3", "random", "all_in_one", "stop", True): "10fed4dbae758d8d5dce72a8ed6dfbcc31d7dac0541bff1fa669a40d1564afea",
    (37, "2n+3", "random", "all_in_one", "traversal", True): "4a3ef3382b0deb0f4145edb494ca21da8dd55ad4d87fccd609063e4a22601d0e",
    (37, "2n+3", "random", "balanced", "run100_50", False): "6ccfe02812ca6d17468e562964403eee825715033a338e7c452ae68b75af42b9",
    (37, "2n+3", "random", "balanced", "run100_50", True): "3a4d04a04696cc095ff9b83213810e24c80a09f75b0221c8e84ae6544cda7fc7",
    (37, "2n+3", "random", "balanced", "run200", False): "d3e91849e963b8d335b7797396a1c9f3178da0a1bffd9aaabb4dd24a92d13dcd",
    (37, "2n+3", "random", "balanced", "steps50", False): "ed83e29095c06b435d9493fe431ec496aff78e54a448c26217ec5deb16e28736",
    (37, "2n+3", "random", "balanced", "steps50", True): "90189283706a6e93a78330dd58e54b1eb991d039a79cabd4a1529dd0922f0e22",
    (37, "2n+3", "random", "balanced", "stop", True): "172943ec8e73b37ab2274bd5e698fa13aa8ae7589d442b753446fc02b2613186",
    (37, "2n+3", "random", "balanced", "traversal", True): "b04d025e4e2fae27874a7dc9771460fcb3eb630ccccf27e3094a8fc852de4c04",
    (37, "2n+3", "smallest_id", "all_in_one", "run100_50", False): "0e60816aa41a80415383118cb54bb31d00bbbd2af65e01d166b520330debe32f",
    (37, "2n+3", "smallest_id", "all_in_one", "run100_50", True): "154bc218e91f9b6b2f5c5db36e1cf04afe73ae0d27d5e00df2d415fe7921a036",
    (37, "2n+3", "smallest_id", "all_in_one", "run200", False): "e531dde597634f66ffd657e8f5dcef6ea78a8b005587df5987d28c731016f2a0",
    (37, "2n+3", "smallest_id", "all_in_one", "steps50", False): "a56cb1cdd3e9b6e14b97163794a1efd5ee37e3f4e0df18617d4982aee6e9614f",
    (37, "2n+3", "smallest_id", "all_in_one", "steps50", True): "e0035c0dc0ef9a707f4d046ef5acef1a051b7d2573275215333230e826589c12",
    (37, "2n+3", "smallest_id", "all_in_one", "stop", True): "5ffad4d05b9a11d49a02bf168c780385ab33c0c7eb1399945fbf5387a576cf4e",
    (37, "2n+3", "smallest_id", "all_in_one", "traversal", True): "5d1b69c1df0d1728b68a208f12e221bda1ad965c56bc13c133c112a1d9edf8c1",
    (37, "2n+3", "smallest_id", "balanced", "run100_50", False): "388405446524fcaeb0657e9e9f0df511038e9f4374df1222508d394bd3f14a4d",
    (37, "2n+3", "smallest_id", "balanced", "run100_50", True): "14875115647a171f1989780a80c9550600ee23a8fce38498f4494164479cd3d6",
    (37, "2n+3", "smallest_id", "balanced", "run200", False): "2827ac9be43630f4aa6f20815c8e3480c3b68d415a2aaa04f817468d6085db36",
    (37, "2n+3", "smallest_id", "balanced", "steps50", False): "440c65a39b7a71ca9926170eb5a96bd4e6904ea66b590e7f95e263a3cfc85ba5",
    (37, "2n+3", "smallest_id", "balanced", "steps50", True): "203de919302ddb76ff96cf82bcfcccd22f372538e0d3433fa64e009c0e156e05",
    (37, "2n+3", "smallest_id", "balanced", "stop", True): "682f725bbe9bcd3c63b4faa47993a2086a7ed13a62b61460be8aa50857e09bcd",
    (37, "2n+3", "smallest_id", "balanced", "traversal", True): "7727b274cc4519810d72e9e7227bbc7b9f979bc99e7a023f862b9187a2f43bd8",
    (37, "n", "fifo", "all_in_one", "run100_50", False): "67580e33033bdac83267ca30a25f77729b1379ff292330a53361736e28de2758",
    (37, "n", "fifo", "all_in_one", "run100_50", True): "b3785cf3f3a040da1f83cf5da466cda651734ea9221a6dfc3f2047ac0929f4b6",
    (37, "n", "fifo", "all_in_one", "run200", False): "f31631a5e58f74a843833224b608a4e1f862576ab0328dbe781db0596b146ecf",
    (37, "n", "fifo", "all_in_one", "steps50", False): "9f29e9ab0be7128a96f2224d487dbb1b02ad8e6398b0484d8f4cd123c2616c6f",
    (37, "n", "fifo", "all_in_one", "steps50", True): "49790a499888b9dac748172fd06329ca4fef88caf799341f70d2fc2a3151828c",
    (37, "n", "fifo", "all_in_one", "stop", True): "266cfca26eb8c6d30208662c7cbdb29b945f48ec6a780364cc16efec2565eb57",
    (37, "n", "fifo", "all_in_one", "traversal", True): "644ead91c79fd8af38f4a00db9c1cc7e908ddeb463e42cf3669ff44294b559f8",
    (37, "n", "fifo", "balanced", "run100_50", False): "77d4f95feac241a461054e0991991893f72952a6ea24f841c7013c3e6d4c0773",
    (37, "n", "fifo", "balanced", "run100_50", True): "ccb80d3db33e0edfbe588dd294d8bf9a2987b9548e60f036ea31468bf42c5878",
    (37, "n", "fifo", "balanced", "run200", False): "2dc2d3f404cce4297adb00eab79d068ca9993103eeb1aa233047018ff5f86690",
    (37, "n", "fifo", "balanced", "steps50", False): "b2f56289475032a72ae01dfa5e42a5d02aadf82dc1c51967f560ac3e84d06044",
    (37, "n", "fifo", "balanced", "steps50", True): "071964fc60e2b207208c546391bace3ae8bb44b0e8a90f74cde3f4d526b3d010",
    (37, "n", "fifo", "balanced", "stop", True): "fd3dfbb170a2e26ffcaaee82d4dd0ec637673e1263238463e2e1a5650d7452ed",
    (37, "n", "fifo", "balanced", "traversal", True): "198798f910eb69fd9c2326263e6593098963ea8c2826b223425f563df6303796",
    (37, "n", "lifo", "all_in_one", "run100_50", False): "5aa6bbda481d6c4088a406f4a0869bb4abb205ccf282bed7ea56f8f538cd3266",
    (37, "n", "lifo", "all_in_one", "run100_50", True): "cff5a66e4b81b7465fc563f83de8e464b2ab962da132f919cc490561be839b4b",
    (37, "n", "lifo", "all_in_one", "run200", False): "d62b83940e36ee78a2ea7469ddde3c6beab77f2f99a055621fb040ddd49b23c1",
    (37, "n", "lifo", "all_in_one", "steps50", False): "7de8d2e78e4064acce7740e34bef1f3d9d40aacfb13f2e54cf48762ed6ab672f",
    (37, "n", "lifo", "all_in_one", "steps50", True): "993933cb430833df32738a841e7dcba23a9b143e8fcdb52bf9bf77c2bcb66faa",
    (37, "n", "lifo", "all_in_one", "stop", True): "6f66083a41e1339b284fd57cd1842b2aa3042a806ffe040ff2dc23883a00cee1",
    (37, "n", "lifo", "all_in_one", "traversal", True): "3e5ad0b71590bb75cf824da13982a67839e3a87bf4ab0480143809aaea6339c0",
    (37, "n", "lifo", "balanced", "run100_50", False): "bf2b42594be1c0e3bf13ebc6036118dfe6b3460b9f068e63ede58363d44b3904",
    (37, "n", "lifo", "balanced", "run100_50", True): "a39b2d4289fc8831e287ccb7140b19ec27dd2fc99b3c049c6594a0ccdb82389c",
    (37, "n", "lifo", "balanced", "run200", False): "46f990d2933a3e292bbad923b6a461e57c965f4d923861b6615cb87d50d67dac",
    (37, "n", "lifo", "balanced", "steps50", False): "ff29fed93ecdc4bb6b419ecbc993dd8bbb3996c575658442158b874d2a904c41",
    (37, "n", "lifo", "balanced", "steps50", True): "ece64d3bc4026c3866ee854a528ce0490905b30b911768134f2880e34f0560af",
    (37, "n", "lifo", "balanced", "stop", True): "01ec6908f814590b09c72d8b3cc90fc2c11be459783062b51d720fa2d2bc135c",
    (37, "n", "lifo", "balanced", "traversal", True): "c65d1e57d24ef64d57f4293ead790d39bdca80785e7ee7453222eebece60a6ab",
    (37, "n", "random", "all_in_one", "run100_50", False): "c1d8119eb37e1432d898b90ca8393f49e70643bf99c29e0b7542ddbe941ff0b4",
    (37, "n", "random", "all_in_one", "run100_50", True): "92b10a2a622522712bab8226769b91916743c315ae6a629f14fdd964c18fd7ca",
    (37, "n", "random", "all_in_one", "run200", False): "373d80149f06aed95763ac4a66f88141e8d606543a77f97c6a2cadf1c84069b1",
    (37, "n", "random", "all_in_one", "steps50", False): "106c358854451167e58166d6612618b4dc1606c7c16adc2cad6ed2dce11bcc06",
    (37, "n", "random", "all_in_one", "steps50", True): "ed85076f42b5d548e916928156ca7c3162a74b8dc2e3c4a01071e6851511f432",
    (37, "n", "random", "all_in_one", "stop", True): "fbc7cf5802b7613619b79eb5c97c82bf4e07a490c16b12eae4176eb5574bd6bc",
    (37, "n", "random", "all_in_one", "traversal", True): "bef3234b132a1401f607acce4a4da60060089061124c49537d72c6490d5b9624",
    (37, "n", "random", "balanced", "run100_50", False): "6f9a35d0dc18f3e23b7d6e1b23a17c9e82f6b4aae5241548fefae2b18fc545ba",
    (37, "n", "random", "balanced", "run100_50", True): "04e9f4c5f30befe1919d7b1a0d128379bc800739a0a3f7bd13a478c3873c8d39",
    (37, "n", "random", "balanced", "run200", False): "83e52857775eebf965ecf73d04644aa488a80eca4ac16a062c9a3a969fc5da85",
    (37, "n", "random", "balanced", "steps50", False): "fc0c396f1b8ddacdf9688a7b0c1dd350ccf4715facc9b5aa34533e14a3777062",
    (37, "n", "random", "balanced", "steps50", True): "b97bd9593e79f9d2b6ee57c4a73aa6b2f65f85c0920e2d0b2cb21c30a1d18ef0",
    (37, "n", "random", "balanced", "stop", True): "9e2262504f1048fae5d40733c24c09f379e62e4e8c5ebcd222d29ec4795e53db",
    (37, "n", "random", "balanced", "traversal", True): "c00c852fbc26d5aae7964208433d4bde16351fb4aecb955c485952d506180e94",
    (37, "n", "smallest_id", "all_in_one", "run100_50", False): "8e42d84ab2606731f00e4001490918748a8e33662d92da8c8611a69061e63363",
    (37, "n", "smallest_id", "all_in_one", "run100_50", True): "f396af6ceac249c86daad1790c2c9589a263ed83bd30de0560768b4c19adce2e",
    (37, "n", "smallest_id", "all_in_one", "run200", False): "11dffd41eb9d19cfe247e8b818921057bc3ba29341c114be9b6c7226761d9f1a",
    (37, "n", "smallest_id", "all_in_one", "steps50", False): "498385de2de7e7f7fbcfb1009e1b83275cc8f3e0fe7cd52e89d903830e2129f5",
    (37, "n", "smallest_id", "all_in_one", "steps50", True): "e6db26b83949e63829ac0e401ada86c52b5f079350f4acb6e8500439e78d7daf",
    (37, "n", "smallest_id", "all_in_one", "stop", True): "f1d5e711a6044b8361203128926b30fca291dfb6e3a10b4559357d9b5015676d",
    (37, "n", "smallest_id", "all_in_one", "traversal", True): "f8733e9641d93db6d5e8d70d471ab81f1284c9bc57833e33350844ecbb5ad330",
    (37, "n", "smallest_id", "balanced", "run100_50", False): "12c66557d746c0cc8ac13a3c0c120ea4ac475192cd1df0f8325e4b32324da752",
    (37, "n", "smallest_id", "balanced", "run100_50", True): "bda952638a1332255112065f0d0bba87a5639798df377720014108a5da8ac721",
    (37, "n", "smallest_id", "balanced", "run200", False): "646c35bacc691105273bf0cc7f0b2ef5fda93fc4bae94304b424e6f92f44c9d0",
    (37, "n", "smallest_id", "balanced", "steps50", False): "5b80bab45a194698606bbe81295b626772fb5556c53d5badfe9ded64a7bd9bdb",
    (37, "n", "smallest_id", "balanced", "steps50", True): "f73e8862c0c2c56aa6249738e6d15af5a2b6ce83d13c0b09ffeaea04383303af",
    (37, "n", "smallest_id", "balanced", "stop", True): "85ee026777406444600984eed3c5bd1c5ede3b2aca8c26d2cc5c85838e53e759",
    (37, "n", "smallest_id", "balanced", "traversal", True): "373fc6c766ded3b02ad7dd560611525d5d671a1b314c0e0f6064d6ce1180cc7c",
}


@pytest.mark.parametrize(
    "n, balls, discipline, start, op, track", sorted(TOKEN_PINS)
)
def test_token_stream_is_pinned(n, balls, discipline, start, op, track):
    digest = _token_digest(n, balls, discipline, start, op, track)
    assert digest == TOKEN_PINS[n, balls, discipline, start, op, track]
