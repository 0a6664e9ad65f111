"""On-demand compilation and loading of the native batched kernels.

Three C kernels ship with the package and are compiled once per source
version into shared libraries under the user's cache directory, then
loaded through :mod:`ctypes`:

``"rbb"``
    ``rbb_kernel.c`` (next to this module) — the repeated balls-into-bins
    update driven by :class:`~repro.core.batched.BatchedRepeatedBallsIntoBins`.
``"walks"``
    ``graphs/walk_kernel.c`` — the topology-constrained parallel-walk
    update driven by :class:`~repro.graphs.batched.BatchedConstrainedWalks`.
``"greedy_d"``
    ``baselines/greedy_kernel.c`` — the repeated Greedy[d] update driven
    by :class:`~repro.baselines.d_choices.BatchedDChoices`.

Every kernel shares ``_kernel_common.h`` (RNG, the round passes, the
fused-observation recorder, replica-axis threading) and is compiled
against a ladder of flag variants, best first::

    -O3 -march=native -funroll-loops -fopenmp        (OpenMP threading)
    -O3 -march=native -funroll-loops -DREPRO_PTHREADS -pthread
    -O3 -march=native -funroll-loops                 (serial)
    -O3 -fopenmp
    -O3 -DREPRO_PTHREADS -pthread
    -O3

Each variant gets its own cached binary, fingerprinted over the kernel
source, the shared header, the compiler, the exact flag list, and the
host identity — so changing any flag (or the header) can never reuse a
stale ``.so``.  A variant that fails to compile leaves a ``.failed``
marker next to where its binary would live and is skipped on subsequent
runs.  The loaded library is probed via ``repro_threading_model()`` to
report which threading backend it actually carries, and the rbb and
Greedy[d] kernels via ``repro_lockstep_width()`` to report whether they
carry the lockstep replica-group path (``[lockstep=4]``) or not
(``[lockstep=1]``).

Everything is best-effort: when no C compiler is available, compilation
fails, or the environment variable ``REPRO_NATIVE=0`` disables the fast
path, callers fall back to the pure-numpy kernels — the semantic
reference implementations.

Thread-count resolution (:func:`resolve_n_threads`) has the precedence
explicit ``n_threads`` argument > ``REPRO_NATIVE_THREADS`` environment
variable (read by :func:`env_n_threads`, which treats an empty value as
unset) > available CPU count, clamped to the replica count and forced
to 1 when the compiled kernel has no threading backend.  Results are
bit-identical for every thread count, so this is purely a performance
knob.

Sanitizer builds (``REPRO_SANITIZE=asan|ubsan|tsan``) compile every flag
variant with the matching ``-fsanitize=...`` flags appended.  Under TSan
``-march=native`` is dropped (its instrumentation does not mix well with
aggressively vectorized code) and the OpenMP variants are skipped (stock
libgomp hides its fork/join edges from the race detector), so a TSan
build threads through pthreads, which TSan understands natively.
Sanitized binaries live under their own cache fingerprints *and*
mode-tagged file names, so they can never shadow — or be shadowed by —
the fast binaries.  Loading an ASan/TSan ``.so`` into a stock CPython
requires the sanitizer runtime to be preloaded;
``scripts/with_sanitizer.sh`` sets that up.

The ``ctypes`` signature of every exported kernel symbol is declared
once, as data, in :data:`KERNEL_ABI`: each parameter's C name next to
its type.  The loader applies the types to the loaded library,
:func:`kernel_args` builds every kernel call's argument list by name,
and ``repro.lint.abi`` cross-checks names and types against the C
declarations themselves (arity, parameter names, integer widths), so the
hand-maintained mirror cannot silently drift.

The shared header also exports ``repro_uniform_start``, which throws a
``random_uniform`` start from a numpy ``Generator``'s own bit generator
(see :func:`repro.core.batched.make_ensemble_initial`).  It is fetched
from the rbb library through :func:`uniform_start`, not
:func:`get_kernel`, which returns only the simulation kernels.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError

__all__ = [
    "native_available",
    "get_kernel",
    "uniform_start",
    "native_status",
    "native_threading",
    "env_n_threads",
    "resolve_n_threads",
    "available_cpu_count",
    "sanitize_mode",
    "kernel_abi",
    "kernel_args",
    "SymbolABI",
    "KERNEL_ABI",
    "KERNEL_NAMES",
    "SANITIZE_MODES",
    "THREAD_MODELS",
]

_PACKAGE_ROOT = Path(__file__).resolve().parent.parent

#: Shared header compiled into every kernel (threading + RNG runtime).
_COMMON_HEADER = _PACKAGE_ROOT / "core" / "_kernel_common.h"

#: repro_threading_model() return values -> human-readable backend names.
THREAD_MODELS: Dict[int, str] = {0: "serial", 1: "pthreads", 2: "openmp"}


@dataclass(frozen=True)
class SymbolABI:
    """The declared ``ctypes`` signature of one exported kernel symbol.

    This is the Python side of the C ABI, kept as *data* so that the
    loader (:func:`get_kernel`), the argument helper (:func:`kernel_args`)
    and the static cross-checker (:mod:`repro.lint.abi`) share one source
    of truth.  ``params`` pairs each C parameter name with its ``ctypes``
    type, in declared order; ``source`` names the C file whose
    ``REPRO_ABI``-marked definition must agree with it.
    """

    name: str
    params: Tuple[Tuple[str, object], ...]
    restype: Optional[object]
    source: Path

    @property
    def argtypes(self) -> Tuple[object, ...]:
        """The parameters' ``ctypes`` types, in declared order."""
        return tuple(tp for _, tp in self.params)


#: Parameters shared by every kernel's fused-observation ABI tail; the
#: ``(n_obs, R)`` buffers and the histogram outputs may be NULL.
_OBS_TAIL: Tuple[Tuple[str, object], ...] = (
    ("n_threads", ctypes.c_int32),
    ("observe_every", ctypes.c_int64),
    ("n_obs", ctypes.c_int64),
    ("obs_max", ctypes.POINTER(ctypes.c_int32)),
    ("obs_empty", ctypes.POINTER(ctypes.c_int32)),
    ("obs_sum", ctypes.POINTER(ctypes.c_int64)),
    ("obs_sumsq", ctypes.POINTER(ctypes.c_int64)),
    ("hist_k", ctypes.c_int64),
    ("obs_hist", ctypes.POINTER(ctypes.c_int64)),  # (R, hist_k + 1)
    ("obs_overflow", ctypes.POINTER(ctypes.c_int64)),  # (R,)
)

#: The state ``rbb_run`` and ``greedy_run`` share, before Greedy[d]'s ``d``.
_LOAD_HEAD: Tuple[Tuple[str, object], ...] = (
    ("loads", ctypes.POINTER(ctypes.c_int32)),  # (R, n)
    ("R", ctypes.c_int64),
    ("n", ctypes.c_int64),
)

#: The window parameters ``rbb_run`` and ``greedy_run`` share, after it.
_LOAD_WINDOW: Tuple[Tuple[str, object], ...] = (
    ("rounds", ctypes.c_int64),
    ("rng_state", ctypes.POINTER(ctypes.c_uint64)),  # (R, 4)
    ("threshold", ctypes.c_double),
    ("stop_when_legitimate", ctypes.c_int),
    ("max_seen", ctypes.POINTER(ctypes.c_int32)),  # (R,)
    ("min_empty_seen", ctypes.POINTER(ctypes.c_int32)),  # (R,)
    ("first_legit", ctypes.POINTER(ctypes.c_int64)),  # (R,)
    ("rounds_done", ctypes.POINTER(ctypes.c_int64)),  # (R,)
    ("active", ctypes.POINTER(ctypes.c_uint8)),  # (R,)
)

#: ``rbb_run``'s pile faults: fault ``f`` strikes before round
#: ``fault_rounds[f]`` of the call.  With ``n_faults == 0`` the buffers
#: may be NULL.
_FAULT_TAIL: Tuple[Tuple[str, object], ...] = (
    ("n_faults", ctypes.c_int64),
    ("fault_rounds", ctypes.POINTER(ctypes.c_int64)),  # (F,)
    ("fault_bins", ctypes.POINTER(ctypes.c_int32)),  # (F, R)
    ("fault_legit", ctypes.POINTER(ctypes.c_int64)),  # (F, R)
)

_RBB_ABI = SymbolABI(
    name="rbb_run",
    params=_LOAD_HEAD + _LOAD_WINDOW + _OBS_TAIL + _FAULT_TAIL,
    restype=None,
    source=_PACKAGE_ROOT / "core" / "rbb_kernel.c",
)

_WALKS_ABI = SymbolABI(
    name="walks_run",
    params=(
        ("loads", ctypes.POINTER(ctypes.c_int32)),  # (R, n)
        ("R", ctypes.c_int64),
        ("n", ctypes.c_int64),
        ("neighbors", ctypes.POINTER(ctypes.c_int32)),  # (E,)
        ("offsets", ctypes.POINTER(ctypes.c_int64)),  # (n + 1,)
        ("degrees", ctypes.POINTER(ctypes.c_int32)),  # (n,)
        ("lims", ctypes.POINTER(ctypes.c_uint32)),  # (n,)
        ("rounds", ctypes.c_int64),
        ("rng_state", ctypes.POINTER(ctypes.c_uint64)),  # (R, 4)
        ("threshold", ctypes.c_double),
        ("stop_when_legitimate", ctypes.c_int),
        ("constrained", ctypes.c_int),
        ("max_seen", ctypes.POINTER(ctypes.c_int32)),  # (R,)
        ("min_empty_seen", ctypes.POINTER(ctypes.c_int32)),  # (R,)
        ("first_legit", ctypes.POINTER(ctypes.c_int64)),  # (R,)
        ("rounds_done", ctypes.POINTER(ctypes.c_int64)),  # (R,)
        ("active", ctypes.POINTER(ctypes.c_uint8)),  # (R,)
        ("scratch", ctypes.POINTER(ctypes.c_int32)),  # (n_threads, n)
        ("sources", ctypes.POINTER(ctypes.c_int32)),  # (n_threads, n)
    )
    + _OBS_TAIL,
    restype=None,
    source=_PACKAGE_ROOT / "graphs" / "walk_kernel.c",
)

#: ``rbb_run``'s parameters without its faults, with the candidate count
#: ``d`` after ``n``.
_GREEDY_ABI = SymbolABI(
    name="greedy_run",
    params=_LOAD_HEAD + (("d", ctypes.c_int64),) + _LOAD_WINDOW + _OBS_TAIL,
    restype=None,
    source=_PACKAGE_ROOT / "baselines" / "greedy_kernel.c",
)

_PROBE_ABI = SymbolABI(
    name="repro_threading_model",
    params=(),
    restype=ctypes.c_int,
    source=_COMMON_HEADER,
)

#: The replicas one lockstep group of the rbb and Greedy[d] kernels holds:
#: 4, or 1 when the build's vectors are too narrow for the group path.
_LOCKSTEP_ABI = SymbolABI(
    name="repro_lockstep_width",
    params=(),
    restype=ctypes.c_int,
    source=_COMMON_HEADER,
)

#: Throws ``m`` balls per row of an ``(R, n)`` block from numpy's
#: ``bitgen_t`` (``Generator.bit_generator.ctypes.bit_generator``), as
#: ``Generator.integers(0, n)`` draws them.
_START_ABI = SymbolABI(
    name="repro_uniform_start",
    params=(
        ("bitgen", ctypes.c_void_p),
        ("loads", ctypes.POINTER(ctypes.c_int32)),  # (R, n), overwritten
        ("R", ctypes.c_int64),
        ("n", ctypes.c_int64),
        ("m", ctypes.c_int64),
    ),
    restype=None,
    source=_COMMON_HEADER,
)

#: Every exported symbol of the compiled kernels, by name.  The lint ABI
#: checker walks this mapping and verifies each entry against the
#: ``REPRO_ABI``-marked C definition in ``SymbolABI.source``.
KERNEL_ABI: Dict[str, SymbolABI] = {
    abi.name: abi
    for abi in (
        _RBB_ABI, _WALKS_ABI, _GREEDY_ABI, _PROBE_ABI, _LOCKSTEP_ABI,
        _START_ABI,
    )
}


def kernel_abi() -> Dict[str, SymbolABI]:
    """The declared C entry points, by symbol name (a defensive copy)."""
    return dict(KERNEL_ABI)


#: Kernel name -> the entry point its shared library exports.
_KERNELS: Dict[str, SymbolABI] = {
    "rbb": _RBB_ABI,
    "walks": _WALKS_ABI,
    "greedy_d": _GREEDY_ABI,
}

#: Names of the compiled kernels this module can load.
KERNEL_NAMES: Tuple[str, ...] = tuple(_KERNELS)

#: The kernels that run replicas in lockstep groups; their status reports
#: the group width.
_GROUPED = ("rbb", "greedy_d")


def _converter(name: str, tp) -> Callable[[object], object]:
    """The conversion of one named argument to its declared ``ctypes`` type.

    Scalars convert through the type itself.  A pointer parameter takes a
    numpy array that is already C-contiguous with the pointee's dtype —
    the kernel writes through it, so a silent copy would lose its writes —
    or ``None``, which passes NULL (the kernel skips that buffer).
    """
    if not (isinstance(tp, type) and issubclass(tp, ctypes._Pointer)):
        return tp
    dtype = np.dtype(tp._type_)

    def pointer(value):
        if value is None:
            return None
        if not isinstance(value, np.ndarray):
            got = type(value).__name__
        elif value.dtype != dtype:
            got = f"a {value.dtype} array"
        elif not value.flags.c_contiguous:
            got = "a non-contiguous array"
        else:
            return value.ctypes.data_as(tp)
        raise ConfigurationError(
            f"kernel argument {name!r} must be a C-contiguous {dtype} "
            f"array, got {got}"
        )

    return pointer


#: Kernel name -> each parameter's converter, in declared order.
_CONVERTERS: Dict[str, Dict[str, Callable[[object], object]]] = {
    kernel: {name: _converter(name, tp) for name, tp in abi.params}
    for kernel, abi in _KERNELS.items()
}


def kernel_args(kernel: str, values: Mapping[str, object]) -> List[object]:
    """The argument list of one call to a native kernel's entry point.

    ``values`` maps every C parameter name in the kernel's
    :class:`SymbolABI` to its value; the result is in declared order, each
    value converted by its parameter's type (see :func:`_converter`).  A
    missing name, an extra name, or an array of the wrong dtype or layout
    raises :class:`~repro.errors.ConfigurationError`.  The converters are
    built once per kernel, so a call costs one dictionary pass.
    """
    converters = _CONVERTERS[kernel]
    if values.keys() != converters.keys():
        raise ConfigurationError(
            f"{_KERNELS[kernel].name} arguments do not match its declared "
            f"parameters: missing {sorted(converters.keys() - values.keys())}, "
            f"unexpected {sorted(values.keys() - converters.keys())}"
        )
    return [convert(values[name]) for name, convert in converters.items()]


def _declare(lib: ctypes.CDLL, abi: SymbolABI):
    """Apply one symbol's declared signature to a loaded library.

    A missing symbol raises ``AttributeError`` — that is an ABI bug
    (kernel and loader out of sync), not a recoverable condition.
    """
    fn = getattr(lib, abi.name)
    fn.argtypes = list(abi.argtypes)
    fn.restype = abi.restype
    return fn


@dataclass(frozen=True)
class _LoadedKernel:
    """A resolved kernel: its entry point (or None) plus diagnostics."""

    fn: Optional[object]
    status: str
    threading: str  # "openmp" | "pthreads" | "serial" | "unavailable"
    start: Optional[object] = None  # the library's repro_uniform_start


_CACHE: Dict[Tuple[str, Optional[str]], _LoadedKernel] = {}


def _cache_dir() -> Path:
    root = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(root) / "repro-native"


def _compiler() -> Optional[str]:
    for name in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if name and shutil.which(name):
            return name
    return None


#: Optimization/threading flag variants, best first.  The threaded
#: variants come before their serial siblings so threading is lost only
#: when neither OpenMP nor pthreads links on this toolchain.
_FAST = ["-march=native", "-funroll-loops"]
_OPENMP = ["-fopenmp"]
_PTHREADS = ["-DREPRO_PTHREADS", "-pthread"]
_FLAG_VARIANTS: Tuple[Tuple[str, ...], ...] = tuple(
    tuple(flags)
    for flags in (
        _FAST + _OPENMP,
        _FAST + _PTHREADS,
        _FAST,
        _OPENMP,
        _PTHREADS,
        [],
    )
)

#: ``REPRO_SANITIZE`` modes -> the flags appended to every variant.
#: ``-fno-omit-frame-pointer`` keeps sanitizer stack traces readable.
#: GCC's ``-fsanitize=undefined`` leaves out ``float-cast-overflow``, so
#: an out-of-range double-to-int cast would pass the ubsan build unless
#: it is named.
SANITIZE_MODES: Dict[str, Tuple[str, ...]] = {
    "asan": ("-fsanitize=address", "-fno-omit-frame-pointer"),
    "ubsan": (
        "-fsanitize=undefined",
        "-fsanitize=float-cast-overflow",
        "-fno-sanitize-recover=all",
        "-fno-omit-frame-pointer",
    ),
    "tsan": ("-fsanitize=thread", "-fno-omit-frame-pointer"),
}


def sanitize_mode() -> Optional[str]:
    """The active ``REPRO_SANITIZE`` mode, or ``None`` for fast builds."""
    raw = os.environ.get("REPRO_SANITIZE", "").strip().lower()
    if not raw:
        return None
    if raw not in SANITIZE_MODES:
        raise ConfigurationError(
            f"REPRO_SANITIZE must be one of {', '.join(SANITIZE_MODES)} "
            f"(or unset), got {raw!r}"
        )
    return raw


def _variant_ladder(mode: Optional[str]) -> Tuple[Tuple[str, ...], ...]:
    """The flag-variant ladder for one sanitize mode (best first).

    Sanitized variants append the mode's ``-fsanitize=...`` flags to every
    fast variant.  Under TSan ``-march=native`` is dropped (TSan's
    instrumentation of aggressively vectorized code is a known source of
    false positives and miscompiles on older toolchains), and so are the
    OpenMP variants: stock libgomp is not TSan-instrumented, so its
    fork/join edges are invisible to the race detector, while pthreads
    are understood natively.  Duplicates created by the drop collapse,
    preserving order.
    """
    if mode is None:
        return _FLAG_VARIANTS
    extra = SANITIZE_MODES[mode]
    ladder: List[Tuple[str, ...]] = []
    for flags in _FLAG_VARIANTS:
        if mode == "tsan":
            if "-fopenmp" in flags:
                continue
            flags = tuple(f for f in flags if f != "-march=native")
        variant = tuple(flags) + extra
        if variant not in ladder:
            ladder.append(variant)
    return tuple(ladder)


def _fingerprint(abi: SymbolABI, cc: str, flags: Tuple[str, ...]) -> str:
    """Cache key for one (kernel, compiler, flag-variant, host) binary.

    The exact flag list is part of the key, so changing the variant
    ladder (e.g. adding ``-fopenmp``) can never silently reuse a binary
    compiled without it; the shared header is hashed alongside the
    kernel source because it is compiled into the binary; the host
    identity is included because ``-march=native`` builds are not
    portable across CPUs (e.g. a shared ``$HOME`` on a heterogeneous
    cluster).
    """
    digest = hashlib.sha256(abi.source.read_bytes())
    digest.update(_COMMON_HEADER.read_bytes())
    digest.update(cc.encode())
    digest.update("\x1f".join(flags).encode())
    digest.update(platform.machine().encode())
    digest.update(platform.processor().encode())
    digest.update(platform.node().encode())
    return digest.hexdigest()[:16]


def _compile(
    abi: SymbolABI, out: Path, cc: str, flags: Tuple[str, ...]
) -> None:
    """Compile one flag variant of the kernel into ``out`` (atomically)."""
    out.parent.mkdir(parents=True, exist_ok=True)
    cmd = (
        [cc, "-O3", "-shared", "-fPIC"]
        + list(flags)
        + [f"-I{_COMMON_HEADER.parent}", str(abi.source), "-o"]
    )
    with tempfile.NamedTemporaryFile(
        dir=out.parent, suffix=".so", delete=False
    ) as tmp:
        tmp_path = Path(tmp.name)
    proc = subprocess.run(
        cmd + [str(tmp_path)], capture_output=True, text=True, timeout=120
    )
    if proc.returncode == 0:
        os.replace(tmp_path, out)  # atomic: concurrent builds are safe
        return
    tmp_path.unlink(missing_ok=True)
    raise subprocess.CalledProcessError(
        proc.returncode, cmd, output=proc.stdout, stderr=proc.stderr
    )


def _describe_error(exc: BaseException) -> str:
    """One-line diagnostic for a failed compile/load attempt."""
    if isinstance(exc, subprocess.CalledProcessError):
        detail = (exc.stderr or "").strip()[:500]
        return f"compilation failed: {detail or exc}"
    return str(exc)


def _load(name: str, mode: Optional[str]) -> _LoadedKernel:
    abi = _KERNELS[name]
    if os.environ.get("REPRO_NATIVE", "").strip() == "0":
        return _LoadedKernel(None, "disabled via REPRO_NATIVE=0", "unavailable")
    missing = [p for p in (abi.source, _COMMON_HEADER) if not p.exists()]
    if missing:
        return _LoadedKernel(
            None, f"kernel source missing: {missing[0]}", "unavailable"
        )
    cc = _compiler()
    if cc is None:
        return _LoadedKernel(
            None,
            "no C compiler found (set CC or install cc/gcc/clang)",
            "unavailable",
        )
    last_error = "no flag variant compiled"
    for flags in _variant_ladder(mode):
        fingerprint = _fingerprint(abi, cc, flags)
        stem = abi.source.stem if mode is None else f"{abi.source.stem}-{mode}"
        lib_path = _cache_dir() / f"{stem}-{fingerprint}.so"
        marker = lib_path.with_suffix(".failed")
        # Compilation can fail (CalledProcessError/TimeoutExpired) and a
        # cached or fresh binary can fail to load (OSError, e.g. a missing
        # sanitizer runtime); both legitimately fall through to the next
        # flag variant.  Anything else — in particular AttributeError from
        # a symbol the loader declares but the kernel no longer exports —
        # is a programming error and surfaces immediately.
        try:
            if not lib_path.exists():
                if marker.exists():
                    continue  # this variant is known not to compile here
                _compile(abi, lib_path, cc, flags)
            lib = ctypes.CDLL(str(lib_path))
        except (subprocess.SubprocessError, OSError) as exc:
            last_error = _describe_error(exc)
            try:
                marker.parent.mkdir(parents=True, exist_ok=True)
                marker.write_text(last_error[:2000])
            except OSError:
                pass
            continue
        kernel = _declare(lib, abi)
        threading = THREAD_MODELS[int(_declare(lib, _PROBE_ABI)())]
        flag_label = " ".join(flags) if flags else "(base flags)"
        sanitize_label = "" if mode is None else f" [sanitize={mode}]"
        lockstep = (
            f" [lockstep={int(_declare(lib, _LOCKSTEP_ABI)())}]"
            if name in _GROUPED
            else ""
        )
        return _LoadedKernel(
            kernel,
            f"compiled with {cc} {flag_label} [{threading}]"
            f"{sanitize_label} -> {lib_path}{lockstep}",
            threading,
            _declare(lib, _START_ABI),
        )
    return _LoadedKernel(
        None, f"native kernel unavailable: {last_error}", "unavailable"
    )


def _resolve(name: str) -> _LoadedKernel:
    if name not in _KERNELS:
        raise KeyError(
            f"unknown native kernel {name!r}; available: {', '.join(KERNEL_NAMES)}"
        )
    mode = sanitize_mode()
    key = (name, mode)
    if key not in _CACHE:
        _CACHE[key] = _load(name, mode)
    return _CACHE[key]


def native_available(kernel: str = "rbb") -> bool:
    """Whether the compiled kernel is usable in this process."""
    return _resolve(kernel).fn is not None


def get_kernel(kernel: str = "rbb"):
    """The ``ctypes`` entry point of a compiled kernel, or ``None``."""
    return _resolve(kernel).fn


def uniform_start():
    """The rbb library's ``repro_uniform_start``, or ``None``.

    Every kernel library exports it (it lives in the shared header); this
    takes the rbb one.  It is kept apart from :func:`get_kernel`, whose
    entry points are the simulation kernels alone, so whatever wraps or
    counts those calls does not see a start being drawn.
    """
    return _resolve("rbb").start


def native_status(kernel: str = "rbb") -> str:
    """Human-readable availability message (for diagnostics and the CLI).

    A loaded kernel's message names the compiler, the flag variant, the
    threading backend and the binary; the rbb and ``greedy_d`` kernels'
    end in ``[lockstep=N]``, the replicas per lockstep group of that build.
    """
    return _resolve(kernel).status


def native_threading(kernel: str = "rbb") -> str:
    """Threading backend of the loaded kernel.

    One of ``"openmp"``, ``"pthreads"``, ``"serial"``, or
    ``"unavailable"`` (kernel not loaded at all).
    """
    return _resolve(kernel).threading


def available_cpu_count() -> int:
    """CPUs this process may use (affinity-aware where supported)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def env_n_threads() -> Optional[int]:
    """``REPRO_NATIVE_THREADS`` as an integer; ``None`` when unset or empty."""
    env = os.environ.get("REPRO_NATIVE_THREADS", "").strip()
    if not env:
        return None
    try:
        return int(env)
    except ValueError:
        raise ConfigurationError(
            f"REPRO_NATIVE_THREADS must be an integer, got {env!r}"
        ) from None


def resolve_n_threads(
    n_threads: Optional[int] = None,
    n_replicas: Optional[int] = None,
    kernel: str = "rbb",
) -> int:
    """Resolve the worker-thread count for one native kernel call.

    Precedence: explicit ``n_threads`` argument, then the
    ``REPRO_NATIVE_THREADS`` environment variable, then the available
    CPU count.  The result is clamped to ``n_replicas`` (extra threads
    would only idle) and forced to 1 when the compiled kernel has no
    threading backend.  Thread count never changes results — replicas
    own disjoint state and RNG streams — so this is a pure performance
    knob and is deliberately *not* part of :class:`EnsembleSpec`.
    """
    if n_threads is None:
        n_threads = env_n_threads()
    if n_threads is None:
        n_threads = available_cpu_count()
    n_threads = int(n_threads)
    if n_threads < 1:
        raise ConfigurationError(f"n_threads must be >= 1, got {n_threads}")
    if native_threading(kernel) in ("serial", "unavailable"):
        n_threads = 1
    if n_replicas is not None:
        n_threads = min(n_threads, max(int(n_replicas), 1))
    return n_threads
