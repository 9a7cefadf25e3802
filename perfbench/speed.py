"""The machine's speed over time, and times corrected for it.

Each CPU of the small shared VMs this benchmark runs on changes speed by
20-30% for seconds at a time (other tenants of the host), so one run's
compile, cold start, set-up or call times land anywhere between two
speeds.  ``run.py`` puts the run and all its children on one CPU, and a
:class:`SpeedMeter` reads that CPU's speed from a fixed pure-Python loop:
between the operations of a measured loop (a reading every ``EVERY_S``
seconds, outside every timed region) and while a child process runs
(``harness.Run.run_child``, from the waiting parent).
:meth:`SpeedMeter.corrected` scales a time measured over an interval to
the speed at which the loop reads ``REF_MS``: the time the work would
have taken at one fixed speed.  Every run also prints its times as
measured (the stamp's ``as_measured``) and the median reading
(``speed_ms``).
"""

from __future__ import annotations

import bisect
import statistics
import time
from typing import List, Tuple

#: passes of the loop a reading takes the fastest of
TICKS = 3
#: passes of the readings before and after a set-up
LONG_TICKS = 10
#: seconds between two readings inside a measured loop
EVERY_S = 0.1
#: the reading (ms) of the reference speed that corrected times are given at
REF_MS = 0.5


def _pass_ms() -> float:
    start = time.perf_counter()
    x = 0
    for i in range(8000):
        x += i * i
    return (time.perf_counter() - start) * 1e3


class SpeedMeter:
    """Readings ``(when, ms)`` of the fixed loop; ``when`` is
    ``time.monotonic()``, which is system-wide on Linux, so intervals
    timed in child processes can be corrected here."""

    def __init__(self):
        self.readings: List[Tuple[float, float]] = []
        self._times: List[float] = []

    def read(self, ticks: int = TICKS) -> None:
        ms = min(_pass_ms() for _ in range(ticks))
        self.readings.append((time.monotonic(), ms))

    def maybe_read(self) -> None:
        """A reading, unless the last one is younger than ``EVERY_S``."""
        if not self.readings or time.monotonic() - self.readings[-1][0] >= EVERY_S:
            self.read()

    def factor(self, start: float, end: float) -> float:
        """``REF_MS`` over the loop's reading during ``[start, end]``: the
        median of the readings in it, the last one before it and the
        first one after it (readings are in time order)."""
        if len(self._times) != len(self.readings):
            self._times = [when for when, _ in self.readings]
        lo = max(0, bisect.bisect_left(self._times, start) - 1)
        hi = bisect.bisect_right(self._times, end) + 1
        return REF_MS / statistics.median(ms for _, ms in self.readings[lo:hi])

    def corrected(self, seconds: float, start: float, end: float) -> float:
        """*seconds*, measured during ``[start, end]``, at the reference speed."""
        return seconds * self.factor(start, end)

    def median_ms(self) -> float:
        return statistics.median(ms for _, ms in self.readings)
