"""A fixed piece of pure-Python work that gauges the machine's current speed.

The speed of a shared virtual machine drifts by half or more from one
run to the next, in states that last tens of seconds, so two runs of the
same code can differ by more than any useful regression bound.  The
benchmark times this yardstick right before and after every timed op
and scales the op's time by NOMINAL_S over the yardstick's local time:
the result is the op's time on a machine where the yardstick takes
NOMINAL_S.  The yardstick does what hkcone's hot loops do (small-integer
arithmetic and Fraction normalisation) and shares no code with it, so a
change to hkcone never moves it.

Set-up is process start-up and imports rather than arithmetic, so its
gauge is START_CODE, a fresh interpreter importing numpy (hkcone's one
compiled dependency), timed beside every set-up child; set-up times are
scaled to START_NOMINAL_S in the same way.
"""

from __future__ import annotations

import time
from fractions import Fraction

NOMINAL_S = 0.003
START_CODE = "import numpy"
START_NOMINAL_S = 0.2


def work():
    s, f = 0, Fraction(0)
    for i in range(1, 6000):
        s += i * i % 7 + (s >> 3) % 5
        if i % 16 == 0:
            f += Fraction(i, i + 3)
    return s, f


def measure(clock=time.perf_counter) -> float:
    t0 = clock()
    work()
    return clock() - t0
