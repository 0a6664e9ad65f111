"""Host-speed probe: times fixed work that never runs the program.

The shared VMs this benchmark runs on change speed for tens of seconds at
a time, for every process alike: within one minute ``greedy_d`` ops took
340-650 ms for identical work, on either vCPU, and 10-second medians of
``sweep_wide`` spread 17-25 %.  Running more ops per run does not help,
because the slow and fast spells outlast a run.  So before each op the
workload process asks this helper to time a fixed mix of interpreter,
random-number and memory-scatter work (about 25 ms), and reports each op
at the reference speed where that mix takes :data:`PROBE_REF_S`.

The helper is its own process, importing only numpy: its buffers never
count toward the workload's memory, and a change to ``repro`` cannot
change what it times.  Protocol: one line on stdin, one line back with
the probe's seconds; it exits when stdin closes.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List

import numpy as np

#: Probe seconds that define the reference host speed (about the probe's
#: median on the 2-vCPU Xeon VM the bounds were set on).
PROBE_REF_S = 0.025


def probe_once(bins: np.ndarray, index: np.ndarray) -> float:
    """Seconds for one fixed mix of interpreter, RNG and scatter work."""
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    total = 0
    for k in range(150_000):
        total += k & 7
    for _ in range(6):
        rng.integers(0, 1024, size=1 << 18)
    for _ in range(4):
        np.add.at(bins, index, 1)
    return time.perf_counter() - start


def at_reference_speed(times: List[float], probes: List[float]) -> List[float]:
    """Scale op ``i`` by the median of the probes around it.

    ``probes[i]`` ran just before op ``i`` and ``probes[i + 1]`` just
    after it; with the one before op ``i - 1`` the median of three tracks
    a slow or fast spell while one stray probe cannot move it.
    """
    return [
        t * PROBE_REF_S / statistics.median(probes[max(0, i - 1): i + 2])
        for i, t in enumerate(times)
    ]


class HostProbe:
    """Handle on the probe helper process (use as a context manager)."""

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def __call__(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        return float(self._proc.stdout.readline())

    def __enter__(self) -> "HostProbe":
        return self

    def __exit__(self, *exc) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        finally:
            if self._proc.poll() is None:
                self._proc.kill()
                self._proc.wait()
            self._proc.stdout.close()


def main() -> int:
    bins = np.zeros(1 << 21, dtype=np.int64)
    index = np.random.default_rng(0).integers(0, bins.size, size=1 << 17)
    for _ in sys.stdin:
        print(probe_once(bins, index), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
