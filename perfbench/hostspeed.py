"""Host-speed calibration of the wordeq benchmark.

On a shared host, the speed of a pure-Python process drifts by up to 2x
for seconds to minutes at a time, and CPU time tracks wall time through
it, so it is not preemption.  The benchmark therefore reads a fixed
calibration loop next to every timed region and reports each time
scaled to a reference host speed:

    scaled = raw * REFERENCE_S / reading

where reading is the loop's time next to the region.  A scaled time is
in seconds on a host where the loop takes REFERENCE_S.

The loop does not touch wordeq, so no change to the program moves it.
It does what the program spends its time on: short string building,
slicing, comparison and search, and set and dict updates.  A loop of
that kind tracks the program's slowdowns more closely than an arithmetic
loop does.

Set-up (spawning an interpreter and importing) drifts differently from
the loop, so it is scaled the same way by another reading: the time a
bare interpreter takes from spawn to its first line (run.py's
bare_start), with STARTUP_REFERENCE_S in place of REFERENCE_S.

This module does not import wordeq.
"""

from __future__ import annotations

import time

# The loop's reading (fastest of READ_REPS) on the 2-CPU host the
# baselines in README.md were taken on, at its usual full speed.
REFERENCE_S = 0.004
# A bare interpreter start on the same host.
STARTUP_REFERENCE_S = 0.04
READ_REPS = 3


def _loop(n: int = 6000) -> float:
    t = time.perf_counter()
    seen: set = set()
    counts: dict = {}
    for k in range(n):
        w = "ab"[k & 1] * (k % 7) + "ba" * (k % 5)
        x = w[1:] + w[:1]
        seen.add(x == w)
        counts[x] = counts.get(x, 0) + len(w)
        (w + x).find("aab")
    return time.perf_counter() - t


def reading() -> float:
    """The calibration loop's time now: the fastest of READ_REPS runs."""
    return min(_loop() for _ in range(READ_REPS))


def scale(before: float, after: float, reference: float = REFERENCE_S) -> float:
    """Factor that turns a raw time taken between two readings into a scaled time."""
    return reference / ((before + after) / 2)
