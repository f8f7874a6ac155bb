"""Host speed: a fixed calibration loop, and the statistic that scales
the benchmark's times by it.

A shared host runs the same code at different speeds from one moment to
the next, and each CPU on its own (README.md, "Steadiness"). The
benchmark times this loop while a workload runs, and reports the
workload's times scaled to the speed at which the loop takes
``REFERENCE_S``.

Nothing here imports the program.
"""

from __future__ import annotations

import math
import os
import time
from typing import Sequence

#: One calibration pass on a quiet CPU of the host the benchmark was
#: built on. Times are reported at that speed.
REFERENCE_S = 0.0098
#: Share of the program's time that did not slow down with the loop on
#: that host: fitted so that runs in its slowest hour, scaled, matched
#: runs in a calm one (README.md, "Steadiness").
STEADY_SHARE = 0.2


class _Point:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value

    def step(self, other):
        return (self.value + other) & 255


def calibrate() -> float:
    """Seconds one pass of a fixed interpreter-bound loop (attribute
    reads and writes, method calls, list and dict indexing) takes now.

    The loop allocates no object once it runs: it keeps to small ints,
    which the interpreter caches, so its time does not depend on the
    state of the calling process's heap.
    """
    points = [_Point(i & 7, i & 255) for i in range(64)]
    totals = dict.fromkeys(range(8), 0)
    started = time.perf_counter()
    for i in range(80_000):
        point = points[i & 63]
        key = point.key
        totals[key] = point.step(totals[key])
        point.value = (point.value + key) & 255
    return time.perf_counter() - started


def pin_to_fastest_cpu(cpus: Sequence[int], passes: int) -> None:
    """Pin this process, and so the children it starts next, to the CPU
    of *cpus* on which the fastest of *passes* calibration passes is
    fastest now."""
    best = None
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        took = min(calibrate() for _ in range(passes))
        if best is None or took < best[0]:
            best = (took, cpu)
    os.sched_setaffinity(0, {best[1]})


def expected_min(samples: Sequence[float], draws: int) -> float:
    """Expected smallest of *draws* values drawn from *samples* without
    replacement."""
    ordered = sorted(samples)
    n = len(ordered)
    draws = min(draws, n)
    total = math.comb(n, draws)
    return sum(
        value * math.comb(n - rank, draws - 1) / total
        for rank, value in enumerate(ordered, 1)
        if n - rank >= draws - 1
    )


def scale(samples: Sequence[float], draws: int) -> float:
    """Factor that brings to the reference speed a time that is the
    smallest of *draws* samples, one per repetition, when *samples* are
    the calibration passes timed during those repetitions.

    The host's slowdown is the expected fastest of *draws* passes over
    ``REFERENCE_S``: the same statistic a call timed once per repetition
    gets. The program slows down less than the loop does, as if
    ``STEADY_SHARE`` of its time kept its speed (README.md,
    "Steadiness"), so the factor is one over
    ``STEADY_SHARE + (1 - STEADY_SHARE) * slowdown``.
    """
    slowdown = expected_min(samples, draws) / REFERENCE_S
    return 1 / (STEADY_SHARE + (1 - STEADY_SHARE) * slowdown)
