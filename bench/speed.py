"""Machine-speed reference for the benchmark's timings.

The host this benchmark was built on changes speed by up to a half from
minute to minute, and a fixed integer loop speeds up and slows down with
the program.  So a short probe of fixed work runs between operations, and
each latency is scaled by NOMINAL_S over the median of the probes nearest
to it in time: timings read as they would on a machine where the probe
takes NOMINAL_S.  The probe does not touch the program and allocates
nothing the garbage collector tracks, so no change to the program can
change its duration.
"""

from __future__ import annotations

import bisect
import statistics
import time

NOMINAL_S = 0.004  # probe duration the timings are scaled to
EVERY_S = 0.2  # at most one probe per this much time
WINDOW = 5  # probes taken on each side of a latency


def _step(acc, i):
    return (acc * 31 + i) & 0xFFFF


def probe():
    """Duration of a fixed loop of integer work and function calls."""
    start = time.perf_counter()
    acc = 0
    for i in range(15000):
        acc = _step(acc, i) ^ (i >> 3)
    return time.perf_counter() - start


def scale_now(samples=3):
    """Scale factor from probes taken right now."""
    probe()
    return NOMINAL_S / statistics.median(probe() for _ in range(samples))


class Track:
    """Probes interleaved with the operations of a run."""

    def __init__(self):
        probe()
        self.times, self.durations = [], []

    def tick(self):
        """Probe, unless a probe ran in the last EVERY_S seconds."""
        if not self.times or time.perf_counter() - self.times[-1] >= EVERY_S:
            self.durations.append(probe())
            self.times.append(time.perf_counter())

    def scale(self, at):
        """Factor that turns a latency ending at ``at`` into nominal time."""
        i = bisect.bisect(self.times, at)
        return NOMINAL_S / statistics.median(self.durations[max(0, i - WINDOW) : i + WINDOW])
