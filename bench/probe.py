"""Speed probe: CPU times scaled to a fixed reference speed.

The benchmark runs on shared hosts whose speed drifts by up to 2x within
seconds: the same ``edbf-64k`` call took 3.4-6.9 CPU seconds on a 2-core
VM (Intel Xeon, Python 3.11) within fifteen minutes, so medians of raw CPU
time spread by 20-45% between runs.  The probe samples that speed while the
measured code runs.  A SIGPROF timer fires every ``INTERVAL_S`` of process
CPU time and the handler times ``LOOP`` iterations of a fixed interpreter
loop.  A call's scaled time is its CPU time minus the probe's own, times
``REFERENCE_NS`` over the median probe time seen during the call: the CPU
seconds the call would take at the speed where the loop takes
``REFERENCE_NS``.  On that VM, scaling cut the coefficient of variation of
single calls from 19-20% to 5-6% on edbf-64k and sdbf-4k.  The probe costs
about 1% of the CPU time it measures.

Use as a context manager around the measured code::

    with SpeedProbe() as probe:
        work()
    probe.scaled(cpu_seconds_of_work)
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.005
LOOP = 600
# The probe loop's median on that VM in its fast phase; a constant, so
# scaled times stay comparable across runs and commits.
REFERENCE_NS = 45_000


def _probe_loop(n: int) -> int:
    s = 0
    for i in range(n):
        s += i * i % 7
    return s


class SpeedProbe:
    def __init__(self):
        self.samples_ns: list[int] = []
        self._previous = None

    def _tick(self, signum, frame):
        t0 = time.thread_time_ns()
        _probe_loop(LOOP)
        self.samples_ns.append(time.thread_time_ns() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)
        return False

    @property
    def probe_s(self) -> float:
        """CPU time the probe itself used."""
        return sum(self.samples_ns) / 1e9

    def median_ns(self, fallback: float | None = None) -> float:
        if self.samples_ns:
            return statistics.median(self.samples_ns)
        if fallback is None:
            raise ValueError("the probe never fired")
        return fallback

    def scaled(self, cpu_s: float, fallback_ns: float | None = None) -> float:
        """``cpu_s`` without the probe's share, at the reference speed.

        ``fallback_ns`` stands in for the median when the code ran for less
        than one timer interval and the probe never fired.
        """
        return (cpu_s - self.probe_s) * REFERENCE_NS / self.median_ns(fallback_ns)
