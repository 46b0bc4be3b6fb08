"""Timers for the benchmark, with drift correction on a shared host.

On a shared machine the speed available to one process drifts by tens of
percent within seconds, which swamps the differences a benchmark must
see.  ``Speedometer`` lets a timer signal run a fixed pure-Python probe
every ``PERIOD`` seconds, interrupting whatever runs at that moment.  An
interval is then reported in reference seconds: its length without the
probe's own time, times ``REFERENCE_S`` over the median probe time while
it ran (or over the last ``WINDOW`` probes, for intervals too short to
hold that many).  ``Wallclock`` has the same interface and reports plain
seconds.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

PERIOD = 0.025
WINDOW = 5
#: About the probe's median time on the 2-CPU Xeon host the benchmark was
#: tuned on (CPython 3.11), so that reference seconds read close to seconds
#: there.
REFERENCE_S = 0.0006


def probe() -> None:
    """Dict and integer work, the mix the library spends its time on.

    It allocates no container objects, so it never triggers the cyclic
    garbage collector, whose pauses grow with the workload's heap.
    """
    table: dict = {}
    for i in range(2500):
        key = (i & 63) * 1000 + (i >> 6)
        table[key] = table.get(key, 0) + (i * 7) % 5


class Wallclock:
    def mark(self):
        return perf_counter()

    def since(self, mark) -> float:
        return perf_counter() - mark


class Speedometer:
    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum=None, frame=None) -> None:
        start = perf_counter()
        probe()
        took = perf_counter() - start
        self.samples.append(took)
        self.spent += took

    def __enter__(self) -> "Speedometer":
        for _ in range(WINDOW):
            self._tick()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[float, int]:
        return perf_counter() - self.spent, len(self.samples)

    def since(self, mark: tuple[float, int]) -> float:
        """Reference seconds since ``mark``."""
        start, first = mark
        elapsed = perf_counter() - self.spent - start
        during = self.samples[first:]
        if len(during) < WINDOW:
            during = self.samples[-WINDOW:]
        return elapsed * REFERENCE_S / statistics.median(during)

    def factor(self) -> float:
        """Reference seconds per second over the whole run, for the record."""
        return REFERENCE_S / statistics.median(self.samples)
