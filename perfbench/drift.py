"""Drift control: the calibration kernel behind ``wall_norm``.

Host speed on small shared machines moves by up to 2x, in phases from a
fraction of a second to tens of seconds, so raw wall time does not repeat
within a tenth.  The kernel is a fixed amount of exact int/Fraction
arithmetic that does not import dsolid.  It runs before the workload body,
every ``INTERVAL`` seconds of body time (from a SIGALRM timer, so no hook in
the engine is needed) and after the body.  Each slice of body time is
divided by the mean of the two kernel times around it; the sum is the body
time in kernel units, which tracks the engine's work rather than the host's
speed.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

INTERVAL = 0.1  # seconds of body time between kernel samples
ROUNDS = 2000  # 12-20 ms per kernel on a 2-vCPU Xeon host
# The kernel time taken as the reference speed: set-up is reported in
# seconds at this speed, its measured time scaled by the kernels around it.
REFERENCE_KERNEL_S = 0.015


def kernel() -> tuple[Fraction, int]:
    """Fraction multiply-add and int dict updates, the engine's two staples."""
    acc = Fraction(0)
    table: dict[tuple[int, int], int] = {}
    for i in range(1, ROUNDS):
        acc += Fraction(i % 97 + 1, i % 89 + 3) * Fraction(3, i % 7 + 2)
        key = (i % 13, i % 7)
        table[key] = table.get(key, 0) + i * (i % 5)
    return acc, sum(table.values())


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class Interleaver:
    """Context manager that interleaves kernel samples with the body it wraps."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, end) of each kernel
        self.expected: tuple[Fraction, int] | None = None
        self.kernel_ok = True

    def _sample(self) -> None:
        t0 = time.perf_counter()
        result = kernel()
        t1 = time.perf_counter()
        if self.expected is None:
            self.expected = result
        elif result != self.expected:
            self.kernel_ok = False
        self.samples.append((t0, t1))

    def _on_alarm(self, signum, frame) -> None:
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL)

    def __enter__(self) -> "Interleaver":
        self._sample()
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._sample()

    def wall_s(self) -> float:
        """Body time: the gaps between kernel samples."""
        return sum(b[0] - a[1] for a, b in zip(self.samples, self.samples[1:]))

    def wall_norm(self) -> float:
        """Body time in kernel units, each slice scaled by the kernels around it."""
        total = 0.0
        for a, b in zip(self.samples, self.samples[1:]):
            kernel_s = ((a[1] - a[0]) + (b[1] - b[0])) / 2
            total += (b[0] - a[1]) / kernel_s
        return total
