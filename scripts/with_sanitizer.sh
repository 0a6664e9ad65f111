#!/usr/bin/env bash
# Run a command against sanitizer-instrumented native kernels.
#
# Usage:
#   scripts/with_sanitizer.sh <asan|ubsan|tsan> <command...>
#   REPRO_SANITIZE=asan scripts/with_sanitizer.sh <command...>
#
# The script exports REPRO_SANITIZE (selecting the instrumented build
# variant in repro.core.native), resolves the sanitizer runtime that a
# stock CPython needs preloaded (ASan/TSan), sets sane *SAN_OPTIONS
# defaults, and then — before running anything — asserts that every
# kernel actually loads instrumented.  A sanitizer leg that silently
# fell back to the numpy kernels would test nothing, so the fallback is
# an error here, never a skip.  Under tsan it also asserts that every
# kernel threads through pthreads: an OpenMP build would hide its
# fork/join edges from the race detector (stock libgomp is not
# TSan-instrumented), so the loader never builds one for tsan.
#
# Under asan and ubsan it asserts that every kernel reports the same
# lockstep width ("[lockstep=N]", the rbb and greedy_d kernels) as the
# unsanitized build.  A leg whose build lost -march=native would run every
# replica alone, and the tests that compare lockstep groups with the
# lane-by-lane loop would compare that loop with itself and pass.  TSan
# builds drop -march=native on purpose (see repro.core.native), so they
# run every replica alone and are exempt.
#
# The probe and the command both run as children of a small Python
# driver rather than directly from this shell: TSan's startup is
# sensitive to the address-space layout it inherits, and spawning from a
# Python parent is the configuration that works reliably across the
# kernels/containers we run on.
#
# The caller provides PYTHONPATH (CI: PYTHONPATH=src).
set -euo pipefail

if [[ "${1:-}" =~ ^(asan|ubsan|tsan)$ ]]; then
    export REPRO_SANITIZE="$1"
    shift
fi
if [[ -z "${REPRO_SANITIZE:-}" || $# -eq 0 ]]; then
    echo "usage: with_sanitizer.sh <asan|ubsan|tsan> <command...>" >&2
    exit 2
fi

CC_BIN="${CC:-cc}"
runtime=""
case "$REPRO_SANITIZE" in
    asan)
        runtime="$("$CC_BIN" -print-file-name=libasan.so)"
        # The kernels are leak-checked by their own tests; Python's
        # allocator noise would drown real reports.
        export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=0}"
        ;;
    ubsan)
        # UBSan's runtime links into the .so itself; no preload needed.
        export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}"
        ;;
    tsan)
        runtime="$("$CC_BIN" -print-file-name=libtsan.so)"
        export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}"
        ;;
    *)
        echo "with_sanitizer.sh: REPRO_SANITIZE must be asan, ubsan or tsan; got '$REPRO_SANITIZE'" >&2
        exit 2
        ;;
esac

if [[ -n "$runtime" ]]; then
    if [[ "$runtime" == lib*.so || ! -e "$runtime" ]]; then
        echo "with_sanitizer.sh: $CC_BIN has no runtime for $REPRO_SANITIZE (got '$runtime')" >&2
        exit 2
    fi
    export REPRO_SANITIZER_RUNTIME="$runtime"
fi

exec python - "$@" <<'PY'
import os
import subprocess
import sys

command = sys.argv[1:]
env = dict(os.environ)
runtime = env.pop("REPRO_SANITIZER_RUNTIME", "")
if runtime:
    tail = env.get("LD_PRELOAD")
    env["LD_PRELOAD"] = f"{runtime}:{tail}" if tail else runtime

# Each kernel's "[lockstep=N]" suffix, or "" for a kernel without groups.
widths = (
    "import json, re\n"
    "from repro.core.native import KERNEL_NAMES, native_status\n"
    "print(json.dumps({kernel: ''.join(re.findall(r' \\[lockstep=\\d+\\]$',\n"
    "    native_status(kernel))) for kernel in KERNEL_NAMES}))\n"
)
plain = "{}"
if env["REPRO_SANITIZE"] != "tsan":
    plain_env = {k: v for k, v in os.environ.items() if k != "REPRO_SANITIZE"}
    plain = subprocess.run(
        [sys.executable, "-c", widths], env=plain_env, capture_output=True,
        text=True, check=True,
    ).stdout.strip()

probe = (
    "import json, sys\n"
    "from repro.core.native import (KERNEL_NAMES, native_available,\n"
    "    native_status, native_threading, sanitize_mode)\n"
    "mode = sanitize_mode()\n"
    "plain = json.loads(sys.argv[1])\n"
    "for kernel in KERNEL_NAMES:\n"
    "    status = native_status(kernel)\n"
    "    assert native_available(kernel), f'{kernel}: {status}'\n"
    "    assert f'[sanitize={mode}]' in status, f'{kernel}: {status}'\n"
    "    if mode == 'tsan':\n"
    "        threading = native_threading(kernel)\n"
    "        assert threading == 'pthreads', f'{kernel}: {threading}: {status}'\n"
    "    else:\n"
    "        assert status.endswith(plain[kernel]), (\n"
    "            f'{kernel}: unsanitized build ends in {plain[kernel]!r}: {status}')\n"
    "        assert plain[kernel] or '[lockstep=' not in status, f'{kernel}: {status}'\n"
    "    print(f'[with_sanitizer] {kernel}: {status}', flush=True)\n"
)
rc = subprocess.run([sys.executable, "-c", probe, plain], env=env).returncode
if rc != 0:
    print("with_sanitizer.sh: instrumented kernels failed to load", file=sys.stderr)
    sys.exit(rc)
sys.exit(subprocess.run(command, env=env).returncode)
PY
