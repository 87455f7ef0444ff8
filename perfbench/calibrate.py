"""Machine-speed calibration for the end-to-end metrics.

On a shared machine the speed of the same code drifts by 20-30% over
seconds to minutes (other tenants, frequency scaling).  That is wider than
any useful regression bound, and longer runs do not average it away.  So
every timed phase of a run also times a fixed reference, interleaved with
its operations, and scales its times by ``nominal / reference time``, with
the reference timed just before and just after each operation: they read
as on a machine where the reference takes its nominal time.  Both
references are the benchmark's own code and never import ``cohiggs``, so a
change to the program cannot move them; only the machine can.  Raw times
are kept next to the scaled ones in the result file.

* ``kernel``: Fraction arithmetic, dict churn and an integer loop in the
  measuring process, for in-process operations and set-up.
* ``spawn``: a fresh interpreter that runs the kernel a given number of
  times (none for the CLI loop, 30 for the batch runs), for operations that
  are processes: their cost follows process creation and start-up, plus
  computation for the batch, more closely than the in-process kernel does.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from fractions import Fraction

# About the references' times on a shared 2-core x86_64 VM at full speed.
KERNEL_NOMINAL_MS = 2.5
SPAWN_NOMINAL_MS = 50.0


def kernel():
    acc = Fraction(0)
    table = {}
    for i in range(1, 300):
        q = Fraction(i, i + 7)
        acc += q * q
        table[(i, i % 5)] = acc
    s = 0
    for i in range(15000):
        s += i * i % 7
    return acc, s, len(table)


def time_kernel() -> int:
    t0 = time.perf_counter_ns()
    kernel()
    return time.perf_counter_ns() - t0


class Calibration:
    """Reference times sampled through one timed phase."""

    def __init__(self, reference, nominal_ms: float, interval_s: float):
        self._reference = reference
        self.nominal_ms = nominal_ms
        self.interval_s = interval_s
        self.samples: list[int] = []
        self._last = 0.0

    def sample(self, n: int = 1) -> list[int]:
        new = [self._reference() for _ in range(n)]
        self.samples += new
        self._last = time.perf_counter()
        return new

    def tick(self) -> None:
        """Sample if ``interval_s`` has passed since the last sample."""
        if time.perf_counter() - self._last >= self.interval_s:
            self.sample()

    def reference_ms(self) -> float:
        return statistics.median(self.samples) / 1e6

    def scale(self, latencies: list[int], marks: list[int]) -> list[float]:
        """Scale each latency by the mean of the samples just before and just
        after it; ``marks[j]`` is the index of the first sample after
        latency j, so a sample must precede the first operation and follow
        the last."""
        s = self.samples
        nominal_ns = self.nominal_ms * 1e6
        return [lat * nominal_ns * 2 / (s[m - 1] + s[m]) for lat, m in zip(latencies, marks)]

    def factor(self, samples=None) -> float:
        """Multiply a time by this (divide a rate by it) to scale it to the
        nominal reference time; over all samples or the given ones."""
        return self.nominal_ms / (statistics.median(samples or self.samples) / 1e6)


def kernel_calibration() -> Calibration:
    return Calibration(time_kernel, KERNEL_NOMINAL_MS, interval_s=0.05)


def spawn_calibration(env: dict, cwd: str, kernels: int = 0) -> Calibration:
    """A fresh interpreter that runs the kernel ``kernels`` times and exits."""
    cmd = [sys.executable, __file__, str(kernels)] if kernels else [sys.executable, "-c", "pass"]

    def spawn() -> int:
        t0 = time.perf_counter_ns()
        subprocess.run(cmd, cwd=cwd, env=env, check=True, capture_output=True, timeout=60)
        return time.perf_counter_ns() - t0

    nominal = SPAWN_NOMINAL_MS + kernels * KERNEL_NOMINAL_MS
    return Calibration(spawn, nominal, interval_s=0.3)


if __name__ == "__main__":
    for _ in range(int(sys.argv[1])):
        kernel()
