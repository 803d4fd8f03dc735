"""A gauge of how fast the machine is right now, and times corrected by it.

The boxes this benchmark runs on are a few vCPUs of a shared host whose
speed drifts by 10-25 % in plateaus that last seconds to minutes; a fixed
loop of pure Python shows it.  Ten runs of one commit then differ by more
than any optimisation one would want to detect.  The drift is a common
factor on everything the interpreter executes: timing a small fixed unit
of work beside the measured work tracks it to about 1 % (unit and
workload slow down together), so dividing it out leaves the run-to-run
spread of the *program*.

Every time the benchmark reports is therefore a wall-clock measurement
(``time.perf_counter``) multiplied by ``REFERENCE_UNIT_S / unit time
measured around the same moment`` — milliseconds as they would read on a
machine that runs the unit in exactly ``REFERENCE_UNIT_S``.  The unit
uses only built-in integer arithmetic, never the program under test, so
no change to the program can move it; a faster interpreter or host moves
unit and program alike, which is the point.  The uncorrected readings are
printed and stored beside the corrected ones.
"""

from __future__ import annotations

import bisect
import time

from stats import median

__all__ = ["REFERENCE_UNIT_S", "SpeedGauge", "unit"]

clock = time.perf_counter

# One unit at the speed the seed's numbers were taken at (a typical
# plateau of the 2-vCPU seed box).  Corrected times equal measured times
# on a machine of exactly this speed.
REFERENCE_UNIT_S = 500e-6

_MODULUS = (1 << 521) - 1
_PAD_S = 1.0  # a window is widened by this much on both sides


def unit() -> int:
    """A fixed mix of the interpreter work the program does: big-integer
    modular squarings (curve and pairing arithmetic) and small-integer
    loop work (ChaCha20, framing)."""
    x = 3
    for i in range(300):
        x = (x * x + i) % _MODULUS
    s = 0
    for i in range(3000):
        s += i ^ (s >> 3)
    return x ^ s


class SpeedGauge:
    """Unit timings taken through a run, and the correction they imply."""

    def __init__(self):
        self.at: list[float] = []  # perf_counter when each unit started
        self.unit_s: list[float] = []

    def sample(self) -> None:
        started = clock()
        unit()
        self.unit_s.append(clock() - started)
        self.at.append(started)

    def factor(self, start: float, end: float | None = None) -> float:
        """What to multiply a time measured over ``[start, end]`` by.

        The median unit time of the samples in the window (widened by a
        second each side; the three nearest samples if that is empty)."""
        low = bisect.bisect_left(self.at, start - _PAD_S)
        high = bisect.bisect_right(self.at, (start if end is None else end) + _PAD_S)
        if high - low < 3:
            low, high = max(0, low - 2), min(len(self.at), high + 2)
        return REFERENCE_UNIT_S / median(self.unit_s[low:high])
