"""Resumable execution of sweep plans through the ensemble engine.

The scheduler walks a :class:`~repro.sweeps.plan.SweepPlan` in order and
runs every point not yet present in the result store:

1. the store header (sweep spec + root seed + engine configuration) is
   written on first use and *verified* afterwards — a store never mixes
   results from different sweeps, seeds, or engine configurations;
2. completed ``point_id``\\ s in the store's manifest are the checkpoint:
   a killed sweep re-runs nothing on resume, and because points execute
   in plan order with size-independent per-point seeds, a resumed sweep
   produces a manifest **byte-identical** to an uninterrupted one;
3. each point executes in process through
   :func:`~repro.parallel.ensemble.run_ensemble` (in parallel on the
   native kernel's threads, ``n_threads``) and is appended to the store
   before the next point starts.

A header that pins ``n_workers > 1`` comes from a sweep whose points ran
sharded across a process pool, with streams that followed the host's core
count; such a store is not continued (see :func:`resume_sweep`).

Per-point engine time is measured and reported so callers (and
``benchmarks/bench_sweeps.py``) can separate scheduler + store overhead
from simulation time.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional, Union

import numpy as np

from .plan import SweepPlan, expand_sweep
from .spec import SweepSpec
from ..core.native import (
    available_cpu_count,
    env_n_threads,
    native_available,
    resolve_n_threads,
)
from ..errors import ConfigurationError
from ..parallel.ensemble import BATCHED_CLASSES, check_engine, run_ensemble
from ..rng import as_seed_sequence
from ..store import ResultStore
from ..types import SeedLike

__all__ = ["SweepReport", "run_sweep", "resume_sweep", "sweep_status"]

StoreLike = Union[str, Path, ResultStore]
Progress = Optional[Callable[[str], None]]

#: Store-header schema version (bump on incompatible layout changes).
#: Version 2: a ``d_choices`` point pinned to ``"native"`` runs the
#: native Greedy[d] kernel; under version 1 it ran numpy.
HEADER_VERSION = 2


@dataclass
class SweepReport:
    """Outcome of one ``run_sweep`` call."""

    spec: SweepSpec
    store: ResultStore
    n_points: int
    n_skipped: int
    n_run: int
    engine_seconds: float = 0.0
    elapsed_seconds: float = 0.0
    run_point_ids: List[str] = field(default_factory=list)

    @property
    def n_completed(self) -> int:
        """Points present in the store after this call."""
        return len(self.store.completed_point_ids())

    @property
    def n_remaining(self) -> int:
        return self.n_points - self.n_completed

    @property
    def finished(self) -> bool:
        return self.n_remaining == 0

    @property
    def overhead_seconds(self) -> float:
        """Scheduler + store time: everything that is not engine time."""
        return max(self.elapsed_seconds - self.engine_seconds, 0.0)


def _coerce_store(store: StoreLike) -> ResultStore:
    if isinstance(store, ResultStore):
        return store
    path = Path(store)
    if (path / ResultStore.HEADER_NAME).exists():
        return ResultStore.open(path)
    return ResultStore.create(path)


def _resolve_kernel(kernel: str, plan: SweepPlan) -> str:
    """Resolve ``"auto"`` to the kernel this environment will actually use.

    The numpy and native kernels draw different random streams, so the
    store header must pin the *resolved* kernel: resuming in an
    environment that would resolve ``"auto"`` differently must fail the
    header check (and the pinned explicit kernel then fails loudly in
    ``run_ensemble``) instead of silently mixing streams.

    Resolution consults the compiled kernels the plan's process families
    actually dispatch to — the ``native_kernel`` of each family's batched
    class: ``"native"`` is pinned only when every required kernel is
    available, matching the silent per-process fallback ``kernel="auto"``
    performs everywhere else.
    """
    if kernel != "auto":
        return kernel
    required = {
        BATCHED_CLASSES[point.config.get("process", "rbb")].native_kernel
        for point in plan
    } - {None}
    if required and all(native_available(name) for name in required):
        return "native"
    return "numpy"


def _stored_version(store: ResultStore, plan: SweepPlan) -> int:
    """The header version a continued store keeps (new stores get the current).

    A version-1 store resumes unchanged unless it pins ``"native"`` for a
    plan with ``d_choices`` points: those points ran numpy under version
    1 and would run the native Greedy[d] kernel now, mixing two random
    streams in one store, so the resume is refused before any point runs.
    """
    stored = store.read_header()
    _refuse_sharded_store(stored)
    if stored is None or stored.get("version") != 1:
        return HEADER_VERSION
    greedy = any(
        point.config.get("process", "rbb") == "d_choices" for point in plan
    )
    if stored.get("kernel") == "native" and greedy:
        raise ConfigurationError(
            "this store has a version-1 header that pins kernel 'native' for "
            "d_choices points, which ran the numpy kernel before Greedy[d] "
            "had a native kernel; continuing would mix numpy and native "
            "streams in one store, so run the sweep into a new store"
        )
    return 1


def _refuse_sharded_store(header: Optional[dict]) -> None:
    """Refuse to continue a store whose points ran sharded.

    Its points drew their streams per shard, and the shard count followed
    the host's core count; points now run in process, so continuing would
    mix two derivations in one manifest.
    """
    workers = 0 if header is None else int(header.get("n_workers") or 0)
    if workers > 1:
        raise ConfigurationError(
            f"this store's header pins n_workers={workers}: its points ran "
            "sharded across a process pool, whose streams followed the "
            "host's core count; points now run in process, so continuing "
            "would mix two stream derivations in one store; run the sweep "
            "into a new store"
        )


def _header(
    spec: SweepSpec,
    seed: SeedLike,
    engine: str,
    kernel: str,
    n_workers: int,
    n_threads: Optional[int] = None,
    version: int = HEADER_VERSION,
) -> dict:
    root = as_seed_sequence(seed)
    entropy = root.entropy
    header = {
        "version": version,
        "spec": spec.to_dict(),
        "seed_entropy": entropy if isinstance(entropy, int) else list(entropy),
        "seed_spawn_key": [int(k) for k in root.spawn_key],
        "engine": engine,
        "kernel": kernel,
        "n_workers": int(n_workers),
    }
    if n_threads is not None:
        # Results are thread-count invariant (bit-identical trajectories),
        # so n_threads is pinned only when explicitly requested — stores
        # written before the knob existed stay resumable unchanged.
        header["n_threads"] = int(n_threads)
    return header


def _cap_threads(n_threads: Optional[int], n_workers: int) -> Optional[int]:
    """Keep ``workers x threads`` within the visible CPU budget.

    :func:`run_sweep` runs every point in process (one worker), so this
    caps the thread count at the visible cores.  Only an *explicit*
    thread request (argument or ``REPRO_NATIVE_THREADS``) can
    oversubscribe: with ``n_threads=None`` and no env override the kernel
    uses the visible cores.  When the request exceeds them, warn and
    reduce the *executed* thread count; the header still pins what was
    requested, so resumes on bigger machines run unreduced.
    """
    requested = n_threads
    if requested is None:
        if env_n_threads() is None:
            return None
        requested = resolve_n_threads()
    workers = max(int(n_workers), 1)
    cores = available_cpu_count()
    if workers * int(requested) > cores:
        capped = max(1, cores // workers)
        warnings.warn(
            f"sweep would run {workers} worker(s) x {requested} native "
            f"thread(s) on {cores} visible core(s); reducing to "
            f"{capped} thread(s) per worker to avoid oversubscription "
            "(results are identical for any thread count)",
            RuntimeWarning,
            stacklevel=3,
        )
        return capped
    return int(requested)


def run_sweep(
    spec: SweepSpec,
    store: StoreLike,
    seed: SeedLike = 0,
    engine: str = "auto",
    kernel: str = "auto",
    n_workers: int = 0,
    n_threads: Optional[int] = None,
    max_points: Optional[int] = None,
    progress: Progress = None,
) -> SweepReport:
    """Run (or continue) a sweep, checkpointing every completed point.

    Parameters
    ----------
    spec:
        The declarative sweep; expanded deterministically by the planner.
    store:
        A :class:`ResultStore`, or a directory path (created when new,
        reopened — and thereby resumed — when it already holds a store).
    seed:
        Root seed; point ``i`` derives its stream via
        ``trial_seed(seed, i)`` regardless of grid size.
    engine, kernel:
        Forwarded to :func:`run_ensemble` per point and pinned in the
        store header: resuming with different values is refused (the
        numpy and native kernels draw different streams).  A removed
        engine is refused before any point runs or the store is touched.
    n_workers:
        ``0`` or ``1``; every point runs in process, and the value is
        pinned in the header.  A value above 1 is refused before the
        store is created or touched: a sweep runs in parallel on the
        native kernel's threads (``n_threads``).
    n_threads:
        Native-kernel threads per point, forwarded to :func:`run_ensemble`.
        An execution knob — results are bit-identical for any value — but
        an explicit request is still recorded in the header (and replayed
        on resume) for provenance.  When it exceeds the visible cores the
        scheduler warns and reduces the executed thread count.
    max_points:
        Stop after newly running this many points (budgeted execution /
        simulated kill); completed points do not count.
    progress:
        Optional callable receiving one human-readable line per point.
    """
    check_engine(engine)
    if max_points is not None and max_points < 0:
        raise ConfigurationError(
            f"max_points must be >= 0, got {max_points}"
        )
    if not 0 <= n_workers <= 1:
        raise ConfigurationError(
            f"n_workers must be 0 or 1, got {n_workers}: every sweep point "
            "runs in process, in parallel on the native kernel's threads; "
            "pass n_threads (--threads) instead"
        )
    started = time.perf_counter()
    plan = expand_sweep(spec)
    kernel = _resolve_kernel(kernel, plan)
    result_store = _coerce_store(store)
    header = _header(
        spec, seed, engine, kernel, n_workers, n_threads,
        version=_stored_version(result_store, plan),
    )
    result_store.write_header(header)
    run_threads = _cap_threads(n_threads, n_workers)

    completed = result_store.completed_point_ids()
    report = SweepReport(
        spec=spec,
        store=result_store,
        n_points=plan.n_points,
        n_skipped=0,
        n_run=0,
    )
    root = as_seed_sequence(seed)
    for point in plan:
        if point.point_id in completed:
            report.n_skipped += 1
            continue
        if max_points is not None and report.n_run >= max_points:
            break
        engine_started = time.perf_counter()
        result = run_ensemble(
            point.ensemble_spec(),
            seed=point.seed(root),
            engine=engine,
            n_workers=n_workers,
            kernel=kernel,
            n_threads=run_threads,
        )
        report.engine_seconds += time.perf_counter() - engine_started
        result_store.append_point(
            index=point.index,
            point_id=point.point_id,
            config=point.config,
            result=result,
            engine=engine,
            kernel=kernel,
            seed_entropy=header["seed_entropy"],
        )
        report.n_run += 1
        report.run_point_ids.append(point.point_id)
        if progress is not None:
            progress(
                f"[{len(result_store)}/{plan.n_points}] point {point.index} "
                f"({point.point_id}) done"
            )
    report.elapsed_seconds = time.perf_counter() - started
    return report


def resume_sweep(
    store: StoreLike,
    max_points: Optional[int] = None,
    progress: Progress = None,
) -> SweepReport:
    """Continue a stored sweep from its own header (spec, seed, engine).

    The header written by :func:`run_sweep` fully determines the
    remaining work, so resuming needs nothing but the store itself.  A
    header that pins ``n_workers > 1`` is refused before any point runs:
    its points ran sharded, and the sweep must go into a new store.
    """
    result_store = (
        store if isinstance(store, ResultStore) else ResultStore.open(store)
    )
    header = result_store.read_header()
    if header is None:
        raise ConfigurationError(
            "store has no sweep header; run `repro sweep run` first"
        )
    _refuse_sharded_store(header)
    entropy = header["seed_entropy"]
    seed = np.random.SeedSequence(
        entropy=entropy if isinstance(entropy, int) else tuple(entropy),
        spawn_key=tuple(header.get("seed_spawn_key", ())),
    )
    return run_sweep(
        SweepSpec.from_dict(header["spec"]),
        result_store,
        seed=seed,
        engine=header["engine"],
        kernel=header["kernel"],
        n_workers=header["n_workers"],
        n_threads=header.get("n_threads"),
        max_points=max_points,
        progress=progress,
    )


@dataclass(frozen=True)
class SweepStatus:
    """Completion state of a stored sweep."""

    name: str
    n_points: int
    n_completed: int
    pending_indexes: List[int]

    @property
    def n_remaining(self) -> int:
        return self.n_points - self.n_completed

    @property
    def finished(self) -> bool:
        return self.n_remaining == 0


def sweep_status(store: StoreLike) -> SweepStatus:
    """How far a stored sweep has progressed (reads only the store)."""
    result_store = (
        store if isinstance(store, ResultStore) else ResultStore.open(store)
    )
    header = result_store.read_header()
    if header is None:
        raise ConfigurationError("store has no sweep header")
    spec = SweepSpec.from_dict(header["spec"])
    plan = expand_sweep(spec)
    completed = result_store.completed_point_ids()
    pending = [p.index for p in plan if p.point_id not in completed]
    return SweepStatus(
        name=spec.name,
        n_points=plan.n_points,
        n_completed=len(completed),
        pending_indexes=pending,
    )
