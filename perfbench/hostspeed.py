"""Host-speed reference: timings normalised to a fixed amount of work.

The shared host this benchmark runs on changes speed by up to 2x within a
run, every second or so, and in a different mix at different hours: each
vCPU slows down while other tenants load its sibling hyperthread.  A mean
or percentile over raw wall time then measures that mix as much as lexrag.

So the benchmark runs a fixed reference kernel, ``reference_work``, at
short intervals through the timed window and the set-ups, and divides each
timed interval by the host's speed around it: the median time of the
probes from one interval length before it to one interval length after it,
and at least ``SIDE`` on each side, over ``REFERENCE_S``.  A normalised
time is the time the operation would take on a host that runs the
reference kernel in ``REFERENCE_S``.  The raw wall times are reported
beside the normalised ones.

The kernel mixes the kinds of work lexrag does (bytecode loops, str and
dict work, sorting small records), so its time tracks the slowdown lexrag
sees.  The kernel is part of the benchmark, not
of lexrag, so a change to lexrag moves normalised times as it moves raw
ones.
"""

from __future__ import annotations

import gc
import unicodedata
from bisect import bisect_left, bisect_right
from statistics import median
from time import perf_counter

import numpy as np

REFERENCE_S = 0.0005  # reference-kernel time on the normalised host: a 2-core Xeon's fast state
PROBE_EVERY_S = 0.025  # between reference probes in the timed window
SIDE = 2  # probes counted at least on each side of a timed interval

_WORDS = [f"Wòrd{i} x{i * 7 % 13}" for i in range(400)]
_TABLE = {unicodedata.normalize("NFKD", w).casefold(): i for i, w in enumerate(_WORDS)}
_ROWS = [{"id": f"d:{i}", "score": (i * 7919) % 1000 / 1000.0} for i in range(120)]


def reference_work() -> int:
    """A fixed mix of bytecode loops, str and dict work and sorting of small
    records, about 0.5 ms on a 2-core Xeon in its fast state.  numpy is
    left out: its time swings less than lexrag's between the host's fast
    and slow states, so it tracked every workload worse than these parts."""
    total = 0
    for i in range(3000):
        total += i * i % 7
    for word in _WORDS[:250]:
        key = unicodedata.normalize("NFKD", word).casefold()
        total += _TABLE.get(key, 0) + len(key.split())
    for _ in range(4):
        total += len(sorted(_ROWS, key=lambda row: (-row["score"], row["id"])))
    return total


class HostClock:
    """Reference probes over time, and intervals normalised by them."""

    def __init__(self) -> None:
        self.stamps: list[float] = []  # probe midpoints, ascending
        self.times: list[float] = []
        for _ in range(20):  # warm-up, unrecorded
            reference_work()

    def probe(self, times: int = 1) -> None:
        enabled = gc.isenabled()
        gc.disable()  # a collection of lexrag's garbage is not reference work
        for _ in range(times):
            started = perf_counter()
            reference_work()
            ended = perf_counter()
            self.stamps.append((started + ended) / 2)
            self.times.append(ended - started)
        if enabled:
            gc.enable()

    def probe_due(self, now: float) -> None:
        if not self.stamps or now - self.stamps[-1] >= PROBE_EVERY_S:
            self.probe()

    def speed(self, start: float, end: float) -> float:
        """Host speed over ``[start, end]`` as a factor of the normalised
        host's: reference time there ÷ ``REFERENCE_S``.  A long interval
        has no probes inside it, so it looks as far out on each side as it
        is long; a short one takes the ``SIDE`` nearest probes each side."""
        span = end - start
        before = max(bisect_left(self.stamps, start) - SIDE, 0)
        after = bisect_right(self.stamps, end) + SIDE
        lo = min(bisect_left(self.stamps, start - span), before)
        hi = max(bisect_right(self.stamps, end + span), after)
        return median(self.times[lo:hi]) / REFERENCE_S

    def normalise(self, seconds: float, start: float, end: float) -> float:
        """``seconds`` measured within ``[start, end]``, on the normalised host."""
        return seconds / self.speed(start, end)

    def mean_speed(self) -> float:
        return float(np.mean(self.times)) / REFERENCE_S
