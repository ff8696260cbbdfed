"""The host's speed, and step times scaled to one fixed host speed.

The benchmark runs on a shared virtual machine whose speed drifts by 40-70 %
over seconds to minutes while CPU time still equals wall time. A fixed
reference kernel that does not touch pointline is therefore timed just
before and just after every timed step, and each step's wall time is scaled
by ``REFERENCE_S`` over the mean of those two readings: the step's time on a
host that runs the kernel in ``REFERENCE_S``. The kernel's own time is never
part of a step's.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Reference-kernel time of the fast host state the figures are scaled to.
REFERENCE_S = 0.025

_RNG = np.random.default_rng(0)
_MATRIX = _RNG.normal(size=(192, 192))
_INDEX = _RNG.integers(0, 1000, size=50_000)


def reference_kernel(repeats: int = 1) -> float:
    """Median time (s) of a fixed mix of BLAS, numpy scatter and interpreter
    work, about 25 ms a repeat on a fast host."""
    times = []
    for _ in range(repeats):
        a = _MATRIX.copy()
        start = time.perf_counter()
        for _ in range(40):
            a = a @ a
            a /= np.abs(a).max()
        acc = np.zeros(1000)
        np.add.at(acc, _INDEX, 1.0)
        total = 0
        for i in range(300_000):
            total += i & 7
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Clock:
    """Wall times of named steps, each bracketed by reference-kernel readings."""

    def __init__(self):
        self.samples: list[tuple[str, float]] = []  # (step name, wall seconds)
        self.refs: list[float] = []  # refs[i] before samples[i], refs[i + 1] after it

    def step(self, name: str, fn, *args, **kwargs):
        """Call fn and record its wall time as a sample of step ``name``."""
        self.refs.append(reference_kernel())
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        self.samples.append((name, time.perf_counter() - start))
        return out

    def close(self) -> "Clock":
        """Take the reading after the last step; call once, when the steps end."""
        self.refs.append(reference_kernel())
        return self

    def wall(self) -> dict[str, float]:
        """Wall seconds per step name, summed over its samples."""
        out: dict[str, float] = {}
        for name, wall in self.samples:
            out[name] = out.get(name, 0.0) + wall
        return out

    def scaled_samples(self) -> list[tuple[str, float]]:
        """(step name, seconds at the reference host speed) per sample."""
        assert len(self.refs) == len(self.samples) + 1, "Clock.close() not called"
        return [
            (name, wall * REFERENCE_S / ((self.refs[i] + self.refs[i + 1]) / 2))
            for i, (name, wall) in enumerate(self.samples)
        ]

    def scaled(self) -> dict[str, float]:
        """Seconds per step name at the reference host speed, summed."""
        out: dict[str, float] = {}
        for name, seconds in self.scaled_samples():
            out[name] = out.get(name, 0.0) + seconds
        return out

    def total(self) -> float:
        """Seconds of all steps at the reference host speed."""
        return sum(seconds for _, seconds in self.scaled_samples())
