"""The conformance-case catalog: which engine coordinates face which chain.

A :class:`ConformanceCase` names one *engine coordinate* (kernel, thread
count, observation fusion, worker count) of the batched ensemble engine
driving one *process specification* at small ``n``, together with the
exact ground truth it is checked against.  :func:`build_cases` enumerates
the catalog at two levels:

``smoke``
    The CI gate: every kernel/fusion branch appears at least once,
    with ensemble sizes tuned so the whole tier finishes in well under a
    minute on one core.
``full``
    The pre-merge sweep: the full cross product — both kernels,
    ``n_threads in {1, 2}``, fused and segmented observation,
    every adversary with an exact kernel, Greedy[d], the token process,
    constrained and unconstrained walks on three topologies, and the
    Lemma 5 absorbing chain — at larger ``R`` and more horizons.

Native-kernel cases are declared unconditionally; the runner skips them
(reported, never silently) when no C kernel is loaded, which is exactly
what the ``REPRO_NATIVE=0`` CI leg exercises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Mapping, Optional, Tuple

from ..core.native import native_available
from ..errors import ConfigurationError

__all__ = [
    "ENGINE",
    "ConformanceCase",
    "VERIFY_LEVELS",
    "build_cases",
    "case_by_name",
    "native_kernel_available",
]

VERIFY_LEVELS = ("smoke", "full")

#: The engine every case drives (recorded in labels and artifacts).
ENGINE = "batched"

#: Checks every ensemble-runner case runs per horizon.
DEFAULT_CHECKS = ("state", "max_load", "empty_bins", "window_max", "window_min_empty")


@dataclass(frozen=True)
class ConformanceCase:
    """One engine coordinate checked against one exact chain."""

    name: str
    spec_config: Mapping[str, Any]
    kernel: str = "numpy"
    n_threads: Optional[int] = None
    fused: bool = True
    n_workers: int = 1
    runner: str = "ensemble"  # "ensemble" | "token" | "absorbing" | "scenario_noop"
    horizons: Tuple[int, ...] = (1, 2, 4)
    checks: Tuple[str, ...] = DEFAULT_CHECKS
    ground_truth: str = "exact_rbb_transition_matrix"
    notes: str = ""

    @property
    def needs_native(self) -> bool:
        return self.kernel == "native"

    @property
    def engine_label(self) -> str:
        if self.runner not in ("ensemble", "scenario_noop"):
            return self.runner
        bits = [ENGINE, self.kernel]
        if self.kernel == "native":
            bits.append(f"t{self.n_threads or 1}")
            bits.append("fused" if self.fused else "segmented")
        if self.n_workers > 1:
            bits.append(f"w{self.n_workers}")
        return "/".join(bits)


def native_kernel_available(kernel: str = "rbb") -> bool:
    """Whether the named C kernel actually loaded in this environment."""
    return native_available(kernel)


def _rbb_engine_matrix(R: int, smoke: bool) -> List[ConformanceCase]:
    """The plain-process engine cross product — the heart of the catalog."""
    # max_load/empty_bins observers ride along so the fused in-kernel
    # observation path (and its segmented fallback) is what actually runs
    spec = {
        "n_bins": 3,
        "n_replicas": R,
        "rounds": 4,
        "start": "all_in_one",
        "metrics": ("max_load", "empty_bins"),
    }
    horizons = (1, 4) if smoke else (1, 2, 4, 8)
    cases = [
        ConformanceCase(
            name="rbb-batched-numpy",
            spec_config=spec,
            kernel="numpy",
            horizons=horizons,
        ),
        ConformanceCase(
            name="rbb-batched-numpy-sharded",
            spec_config=spec,
            kernel="numpy",
            n_workers=2,
            horizons=(4,) if smoke else (1, 4),
            notes="distribution-tests the per-shard seed spawning",
        ),
    ]
    thread_counts = (1, 2)
    fusion_modes = (True, False)
    for n_threads in thread_counts:
        for fused in fusion_modes:
            if smoke and (n_threads, fused) not in ((1, True), (2, False)):
                continue
            cases.append(
                ConformanceCase(
                    name=f"rbb-batched-native-t{n_threads}-"
                    + ("fused" if fused else "segmented"),
                    spec_config=spec,
                    kernel="native",
                    n_threads=n_threads,
                    fused=fused,
                    horizons=horizons,
                )
            )
    if not smoke:
        # a second system size so the gate sees more than one state space
        cases.append(
            ConformanceCase(
                name="rbb-n4-batched-native-t2-fused",
                spec_config={
                    "n_bins": 4,
                    "n_replicas": R,
                    "rounds": 6,
                    "start": "all_in_one",
                    "metrics": ("max_load", "empty_bins"),
                },
                kernel="native",
                n_threads=2,
                fused=True,
                horizons=(2, 6),
            )
        )
    return cases


def _process_cases(R: int, smoke: bool) -> List[ConformanceCase]:
    """Greedy[d], adversaries, token process, walks, absorbing chain."""
    horizons = (3,) if smoke else (1, 3, 6)
    cases: List[ConformanceCase] = [
        ConformanceCase(
            name="greedy-d2-batched-numpy",
            spec_config={
                "n_bins": 3,
                "n_replicas": R,
                "rounds": 3,
                "start": "all_in_one",
                "process": "d_choices",
                "d": 2,
            },
            kernel="numpy",
            horizons=(1, 3) if smoke else (1, 2, 3),
            ground_truth="exact_greedy_d_transition_matrix",
        ),
        ConformanceCase(
            name="token-fifo",
            spec_config={"n_bins": 3, "n_replicas": max(R // 2, 150), "rounds": 3},
            runner="token",
            horizons=(1, 3),
            ground_truth="exact_token_transition_matrix",
            notes="window stats seeded from the call-time configuration",
        ),
        ConformanceCase(
            name="absorbing-bin-load",
            spec_config={
                "n_bins": 4,
                "start_level": 3,
                "horizon": 24,
                "trials": max(R, 600),
            },
            runner="absorbing",
            horizons=(24,),
            checks=("absorption_time",),
            ground_truth="BinLoadChain.survival_probabilities",
        ),
    ]
    adversaries = ("concentrate",) if smoke else ("concentrate", "pyramid", "shuffle")
    for adversary in adversaries:
        cases.append(
            ConformanceCase(
                name=f"faulty-{adversary}-batched-numpy",
                spec_config={
                    "n_bins": 3,
                    "n_replicas": R,
                    "rounds": 4,
                    "start": "balanced",
                    "process": "faulty",
                    "adversary": adversary,
                    "fault_period": 2,
                },
                kernel="numpy",
                horizons=(4,) if smoke else (2, 4),
                ground_truth="exact_rbb + adversary_matrix",
            )
        )
    if not smoke:
        cases.append(
            ConformanceCase(
                name="faulty-concentrate-batched-native-t2",
                spec_config={
                    "n_bins": 3,
                    "n_replicas": R,
                    "rounds": 4,
                    "start": "balanced",
                    "process": "faulty",
                    "adversary": "concentrate",
                    "fault_period": 2,
                },
                kernel="native",
                n_threads=2,
                horizons=(2, 4),
                ground_truth="exact_rbb + adversary_matrix",
            )
        )
    topologies = ("cycle:3",) if smoke else ("cycle:3", "complete:3", "star:3")
    for topology in topologies:
        for constrained in ((True,) if smoke else (True, False)):
            cases.append(
                ConformanceCase(
                    name=f"walks-{topology.replace(':', '')}-"
                    + ("constrained" if constrained else "free")
                    + "-batched",
                    spec_config={
                        "n_bins": 3,
                        "n_replicas": R,
                        "rounds": 3,
                        "start": "all_in_one",
                        "process": "graph_walks",
                        "topology": topology,
                        "constrained": constrained,
                    },
                    kernel="numpy",
                    horizons=horizons,
                    ground_truth="exact_walk_transition_matrix",
                )
            )
    if not smoke:
        cases.append(
            ConformanceCase(
                name="walks-cycle3-constrained-native-t2",
                spec_config={
                    "n_bins": 3,
                    "n_replicas": R,
                    "rounds": 3,
                    "start": "all_in_one",
                    "process": "graph_walks",
                    "topology": "cycle:3",
                    "constrained": True,
                },
                kernel="native",
                n_threads=2,
                horizons=(1, 3),
                ground_truth="exact_walk_transition_matrix",
            )
        )
    return cases


def _scenario_cases(R: int, smoke: bool) -> List[ConformanceCase]:
    """Scenario-interpreter gates: exact no-op equality + a statistical case.

    The no-op cases are deterministic bit-equality checks, so they need
    far fewer replicas than the chi-square gates; the adversary case runs
    a real event schedule through the interpreter and faces the same
    ``exact_rbb + adversary_matrix`` ground truth as the faulty process
    (scenario events share its fires-before-the-round clock).
    """
    noop_spec = {
        "n_bins": 3,
        "n_replicas": 64 if smoke else 256,
        "rounds": 4,
        "observe_every": 2,
        "start": "all_in_one",
        "metrics": ("max_load", "empty_bins", "trace"),
    }
    noop_kwargs = dict(
        spec_config=noop_spec,
        runner="scenario_noop",
        horizons=(4,) if smoke else (1, 4),
        checks=("noop_bit_equality",),
        ground_truth="bit-equal static run",
    )
    cases = [
        ConformanceCase(
            name="scenario-noop-batched-numpy",
            kernel="numpy",
            **noop_kwargs,
        ),
        ConformanceCase(
            name="scenario-noop-batched-native-t1-fused",
            kernel="native",
            n_threads=1,
            fused=True,
            **noop_kwargs,
        ),
        ConformanceCase(
            name="scenario-noop-batched-native-t2-segmented",
            kernel="native",
            n_threads=2,
            fused=False,
            **noop_kwargs,
        ),
    ]
    if not smoke:
        cases.append(
            ConformanceCase(
                name="scenario-noop-batched-numpy-sharded",
                kernel="numpy",
                n_workers=2,
                **noop_kwargs,
            )
        )
        cases.append(
            ConformanceCase(
                name="scenario-noop-walks-cycle3-batched",
                spec_config={
                    "n_bins": 3,
                    "n_replicas": 256,
                    "rounds": 3,
                    "start": "all_in_one",
                    "process": "graph_walks",
                    "topology": "cycle:3",
                    "constrained": True,
                    "metrics": ("max_load", "empty_bins"),
                },
                kernel="numpy",
                runner="scenario_noop",
                horizons=(3,),
                checks=("noop_bit_equality",),
                ground_truth="bit-equal static run",
            )
        )
    # same fault schedule as the faulty-concentrate cases (strikes at
    # rounds 2, 4, ...), but spelled as scenario events and executed by
    # the scenario interpreter instead of BatchedFaultyProcess
    scenario_json = (
        '{"events": [{"kind": "adversary", "round": 2, "every": 2, '
        '"adversary": "concentrate"}]}'
    )
    cases.append(
        ConformanceCase(
            name="scenario-adversary-batched-numpy",
            spec_config={
                "n_bins": 3,
                "n_replicas": R,
                "rounds": 4,
                "start": "balanced",
                "scenario": scenario_json,
                "metrics": ("max_load", "empty_bins"),
            },
            kernel="numpy",
            horizons=(4,) if smoke else (2, 4),
            ground_truth="exact_rbb + adversary_matrix",
        )
    )
    return cases


def build_cases(level: str = "smoke") -> List[ConformanceCase]:
    """The catalog at one verification level."""
    if level not in VERIFY_LEVELS:
        raise ConfigurationError(
            f"unknown verify level {level!r}; expected one of {VERIFY_LEVELS}"
        )
    smoke = level == "smoke"
    R = 600 if smoke else 2000
    cases = (
        _rbb_engine_matrix(R, smoke)
        + _process_cases(R, smoke)
        + _scenario_cases(R, smoke)
    )
    names = [case.name for case in cases]
    if len(set(names)) != len(names):  # pragma: no cover - catalog bug guard
        raise ConfigurationError(f"duplicate case names in catalog: {names}")
    return cases


def case_by_name(name: str, level: str = "full") -> ConformanceCase:
    """Look one case up by name (replay path)."""
    for case in build_cases(level):
        if case.name == name:
            return case
    raise ConfigurationError(f"no conformance case named {name!r} at level {level!r}")
