"""Host speed sampled while a rep runs, to scale its wall time.

The shared host this benchmark is run on changes speed by up to 2x for
stretches of seconds to minutes, and every kind of code slows together: a
fixed job's wall time drifts with the host, not with the program.  While
an untraced rep runs, a SIGALRM timer fires every PERIOD_S seconds and
the handler runs `probe`, a fixed small mix of interpreter, Fraction and
numpy work that never calls lerw, twice and times the second run: the
first brings its code and data back into the caches, so the timed run
slows with the host as a job in full flight does.

The rep's scaled time is its wall time minus the time spent in the
handler, times PROBE_REF_S over the mean probe time: the job's time on a
host that runs the probe in PROBE_REF_S.  Probes are spread evenly over
the rep's wall time, so their mean is the rep's time-weighted slowness;
the slowest and fastest tenth are dropped first, so that one probe the
scheduler preempted does not skew it.  A signal that arrives inside a
long C call is handled when the call returns, so such calls are sampled
less often.

The scaling removes most of the drift, not all of it: the probe's small
working set does not feel cache pressure from other processes, which
slows the workloads by up to a tenth.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

import numpy as np

PERIOD_S = 0.05
# the probe's mean time, in seconds, on the 2-vCPU Xeon host the benchmark was
# tuned on, so that scaled times read about like wall times there
PROBE_REF_S = 1.3e-3

_GRID = np.arange(64.0)
_BLOCK = np.random.default_rng(0).random(32768)


def probe() -> int:
    """The fixed unit of work whose time measures the host's speed."""
    acc = 0
    buckets: dict = {}
    for i in range(300):
        buckets[i & 31] = buckets.get(i & 31, 0) + i
        acc += int(np.searchsorted(_GRID, i & 63))
    f = Fraction(1, 3)
    for i in range(1, 40):
        f = f * Fraction(i + 1, i + 2) + Fraction(1, i)
    acc += int(_BLOCK.sum() > 0)
    return acc + len(buckets) + f.denominator % 2


class Sampler:
    """Context manager: probe durations in `samples` while it is entered."""

    def __init__(self):
        self.samples: list = []
        self.spent_s = 0.0  # time spent in the handler

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        probe()
        t1 = time.perf_counter()
        probe()
        t2 = time.perf_counter()
        self.samples.append(t2 - t1)
        self.spent_s += t2 - t0

    def __enter__(self):
        self.samples = []
        self.spent_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scale(self, wall: float) -> tuple:
        """(wall time without probes, that time scaled to PROBE_REF_S)."""
        work = wall - self.spent_s
        if not self.samples:  # a rep shorter than PERIOD_S: probe right after it
            for _ in range(5):
                self._on_alarm(None, None)
        probes = sorted(self.samples)
        cut = len(probes) // 10
        kept = probes[cut : len(probes) - cut]
        return work, work * PROBE_REF_S * len(kept) / sum(kept)
