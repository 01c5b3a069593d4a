"""The machine's momentary speed, measured by a fixed job of the benchmark's own.

The shared host the benchmark runs on changes speed by a third in phases of
tens of seconds, and every wall time moves with it.  ``job`` is pure-Python
graph code of the same kind as the library's (bridge searches on one fixed
seeded cubic graph) and calls nothing in the library, so no change to the
library moves it.  It runs between the measured calls; each call's wall time
is scaled by ``UNIT_S`` over the job's median time around the call, so a
scaled time reads as seconds on a machine where the job takes ``UNIT_S``.
"""

from __future__ import annotations

import bisect
import random
import statistics
import time
from typing import List

from perfbench import generators as gen

N = 20  # vertices of the job's graph; the job takes about a millisecond
UNIT_S = 1e-3  # the job's time on the reference machine
WINDOW_S = 1.0  # job samples this close to a call set its scale
_EDGES = gen.pairing_cubic(N, random.Random("pace"))


def job() -> bool:
    return gen.is_three_edge_connected(N, _EDGES)


class Pace:
    """Job timings in the order they ran, with their start times."""

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.seconds: List[float] = []
        job()  # warm-up

    def sample(self, budget_s: float = 0.0) -> float:
        """Run the job once, then again until ``budget_s`` has gone on it;
        return the scale of these runs alone."""
        first = len(self.seconds)
        spent = 0.0
        while True:
            start = time.perf_counter()
            job()
            took = time.perf_counter() - start
            self.starts.append(start)
            self.seconds.append(took)
            spent += took
            if spent >= budget_s:
                return UNIT_S / statistics.median(self.seconds[first:])

    def scale(self, lo: float, hi: float) -> float:
        """``UNIT_S`` over the median job time among the runs that started
        within ``WINDOW_S`` of the interval [lo, hi]; at least one must have."""
        i = bisect.bisect_left(self.starts, lo - WINDOW_S)
        j = bisect.bisect_right(self.starts, hi + WINDOW_S)
        return UNIT_S / statistics.median(self.seconds[i:j])
