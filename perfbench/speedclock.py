"""A clock that reads in seconds at a nominal interpreter speed.

The machines this benchmark runs on change speed by 20-50 % for
seconds to minutes at a time (shared physical cores), and the change is
per core: a probe on the other core does not follow it.  So the pass
measures its own core's speed as it goes.  Every `INTERVAL_S` of wall
time a SIGALRM handler runs a fixed pure-Python probe in the main
thread, between two bytecodes of whatever the package is doing.
`SpeedClock.now()` advances by the wall time between probes, scaled by
`NOMINAL_PROBE_S / probe time` (the median of the last few probes), and
does not advance during a probe.  On an idle reference machine it reads
like `perf_counter`; when the core slows down, the probe and the package
slow down together and the reading does not.
"""

import signal
import statistics
from time import perf_counter

INTERVAL_S = 0.01
# median probe time on the reference machine (2 vCPU Xeon at 2.1 GHz,
# Python 3.11), so that a scaled second is about a wall second there
NOMINAL_PROBE_S = 4.0e-4
RECENT = 3


def probe():
    """Fixed interpreter work: dict stores and lookups, int arithmetic."""
    d = {}
    s = 0
    for i in range(1500):
        d[i * 7919 % 10007] = i
        s += (i * i) % 13
    for i in range(1500):
        s += d.get(i, 0)
    return s


def time_probe():
    start = perf_counter()
    probe()
    return perf_counter() - start


class SpeedClock:
    def __init__(self, warmup=5):
        self.probes = [time_probe() for _ in range(warmup)]
        self.scaled = 0.0  # scaled seconds up to `mark`
        self.mark = perf_counter()
        self.scale = NOMINAL_PROBE_S / statistics.median(self.probes)
        self._reading = False
        self._deferred = False
        self._previous = None

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def now(self):
        # a probe that falls due while the reading is taken runs after it
        self._reading = True
        t = self.scaled + (perf_counter() - self.mark) * self.scale
        self._reading = False
        if self._deferred:
            self._deferred = False
            self._tick()
        return t

    def _on_alarm(self, signum, frame):
        if self._reading:
            self._deferred = True
        else:
            self._tick()

    def _tick(self):
        start = perf_counter()
        self.scaled += (start - self.mark) * self.scale
        probe()
        self.mark = perf_counter()
        self.probes.append(self.mark - start)
        self.scale = NOMINAL_PROBE_S / statistics.median(self.probes[-RECENT:])
