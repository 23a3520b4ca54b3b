"""Host-speed probe, and the scaling of CPU-bound timings by it.

On the shared 2-vCPU x86-64 host the bounds were set on, each vCPU's speed
switches between states about 1.6x apart, stays in one for seconds to tens
of seconds, and wobbles by 10% within it; the two vCPUs do not move
together.  A unit's fastest replay then depends on whether the run met a
fast state at all: minima over 6 to 24 consecutive replays spread by 40%
(quartile distance over median).  The probe and the program are both pure
Python, so on one vCPU their times move together, and over the same stretch
the ratio of a sweep's time to the probes around it spread by 4-12%.  So
the CPU-bound part of each reading is scaled to reference-host seconds by
the probes taken just before and just after it.  The probe is the
benchmark's own code: a change to the program moves the reading and leaves
the probe alone.

The match is not exact, and how far it misses changes from one slow
episode to the next: a unit's slowdown was 0.83-1.02 times the probe's for
the DEW sweeps and 0.86-1.21 times for the LRU, PLRU and mechanism
engines, so engine-mix keeps a wider spread than dew-family.  A probe of
dict lookups over a 64K-entry table tracked no better.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Optional, Sequence

#: Iterations of the probe loop: about 7 ms at full speed.
PROBE_ITERATIONS = 100_000
#: The probe's time on the reference host in its fast state.  Scaled
#: readings are the seconds the work would take there.
REFERENCE_PROBE_S = 0.007


def probe_seconds() -> float:
    """One timing of a fixed pure-Python loop."""
    start = time.perf_counter()
    total = 0
    for value in range(PROBE_ITERATIONS):
        total += value * value
    return time.perf_counter() - start


def host_probe_ms() -> float:
    """Best of three probes, in milliseconds.

    Recorded before and after each run, so that a disagreement between two
    sets of runs can be told apart from host drift.
    """
    return min(probe_seconds() for _ in range(3)) * 1e3


@dataclass
class Reading:
    """One timed block: its wall seconds, the part of them that was CPU-bound
    work on the probed CPU (``None``: all of it), and the mean of the probes
    around it."""

    seconds: float
    probe: float
    cpu_seconds: Optional[float] = None

    @property
    def cpu(self) -> float:
        return self.seconds if self.cpu_seconds is None else self.cpu_seconds


class HostClock:
    """Takes a probe after each CPU-bound reading, which is also the
    "before" probe of the next one."""

    def __init__(self) -> None:
        self.last = probe_seconds()

    def reading(self, seconds: float) -> Reading:
        after = probe_seconds()
        reading = Reading(seconds, (self.last + after) / 2)
        self.last = after
        return reading


def reference_seconds(readings: Sequence[Reading]) -> float:
    """A unit's time in reference-host seconds over its readings.

    The CPU-bound parts are summed and scaled by the summed probes: the
    ratio of the sums, which spread less than the median of the ratios.
    The rest of each reading, time spent waiting rather than computing,
    does not scale with host speed and is taken as its median.
    """
    cpu = REFERENCE_PROBE_S * sum(r.cpu for r in readings) / sum(r.probe for r in readings)
    return cpu + statistics.median(r.seconds - r.cpu for r in readings)
