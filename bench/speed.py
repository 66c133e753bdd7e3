"""Speed probe: wall time scaled to a reference machine speed.

A shared host runs this benchmark at a speed that changes from one second
to the next (on a 2-vCPU virtual machine a fixed pure-Python loop took
between 1.1 and 2 times its fastest time when averaged over one second, and
the average drifted over minutes).  Raw wall times of identical runs then
differ by more than any change worth detecting.

So the workload runs a fixed chunk of pure-Python work, shaped like the
library's own (tuple-keyed dicts of Fractions), just before every timed
op and around every set-up.  The chunk shares no code with the library, so
a change to the library cannot change it.  An interval's scaled time is

    wall time * REFERENCE_CHUNK_S / mean time of the chunks run within
                                    WINDOW_S of the interval

that is, the seconds the interval would have taken on a host where one
chunk takes REFERENCE_CHUNK_S.  Ops slow down with the host as the chunk
does, so the ratio cancels most of the drift.
"""
from __future__ import annotations

import bisect
import gc
from fractions import Fraction
from time import perf_counter

# Seconds one chunk is taken to last at reference speed: about its fastest
# time, with nothing else contending for the processor, on a 2-vCPU Intel
# Xeon virtual machine at 2.0 GHz with Python 3.11.
REFERENCE_CHUNK_S = 0.0012

# Chunks that start within this many seconds of an interval set its speed.
WINDOW_S = 0.2

# Probe time before each op, as a share of the previous op's wall time,
# and its floor; and probe time before and after each set-up.
PROBE_SHARE = 0.2
MIN_PROBE_S = 0.002
SETUP_PROBE_S = WINDOW_S

_WEIGHTS = [Fraction(k % 5 + 1, 12) for k in range(12)]


def chunk() -> Fraction:
    """A fixed amount of work: the law of 256 two-state paths, then its mass."""
    law = {(): Fraction(1)}
    for step in range(8):
        grown = {}
        for path, p in law.items():
            for state in (0, 1):
                grown[path + (state,)] = p * _WEIGHTS[(step + 2 * len(path) + state) % 12]
        law = grown
    return sum(law.values())


class SpeedProbe:
    """Runs chunks on demand and scales intervals by the chunks around them."""

    def __init__(self):
        self._starts: list = []
        self._times: list = []
        self.spent = 0.0  # seconds spent in chunks so far

    def run(self, seconds: float) -> None:
        """Run whole chunks until at least `seconds` have passed.

        The collector is off meanwhile: a chunk frees all it allocates, and
        must not pay for collecting the library's heap, whose size would
        then set the chunk's time.
        """
        collecting = gc.isenabled()
        gc.disable()
        spent = 0.0
        try:
            while spent < seconds:
                start = perf_counter()
                chunk()
                elapsed = perf_counter() - start
                self._starts.append(start)
                self._times.append(elapsed)
                spent += elapsed
        finally:
            if collecting:
                gc.enable()
        self.spent += spent

    def before_op(self, previous_op_s: float) -> None:
        self.run(max(MIN_PROBE_S, PROBE_SHARE * previous_op_s))

    def factor(self, start: float, end: float) -> float:
        """Reference speed over measured speed, from chunks near [start, end]."""
        lo = bisect.bisect_left(self._starts, start - WINDOW_S)
        hi = bisect.bisect_right(self._starts, end + WINDOW_S)
        times = self._times[lo:hi]
        if not times:
            raise RuntimeError("no probe chunk ran near the interval")
        return REFERENCE_CHUNK_S * len(times) / sum(times)

    def scaled(self, start: float, seconds: float) -> float:
        """`seconds` of wall time from `start`, scaled to reference speed."""
        return seconds * self.factor(start, start + seconds)

    def median_chunk_s(self) -> float:
        times = sorted(self._times)
        return times[len(times) // 2]
