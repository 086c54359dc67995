"""Machine-speed calibration.

On a shared host the same pure-Python work can take 1.3-1.6x longer
for tens of seconds at a time, because other tenants contend for the
physical cores.  A run of the benchmark therefore times a fixed
reference loop (a *probe*) next to its work, and scales every time it
reports to the speed at which one probe takes :data:`REFERENCE_S`:

    reported = measured * REFERENCE_S / median(probes of that round)

The probe is benchmark code, so it is identical on every commit the
benchmark compares; a change to the checker moves the scaled times
exactly as it moves the measured ones.  The raw (unscaled) wall time
and the speed factor are printed beside the scaled metrics.

The probe mixes an integer loop with building and walking a table of
small objects: contention for the caches slows the checker's
allocation-heavy code more than it slows arithmetic, and the mix tracks
the checker's speed more closely than either half alone.  The
collector is off during the probe, so the probe's time does not depend
on how much the checker holds in memory.
"""

from __future__ import annotations

import gc
import statistics
import time

#: iterations of the probe's integer loop
PROBE_ITERATIONS = 150_000
#: objects in the probe's table
PROBE_OBJECTS = 20_000
#: seconds one probe takes at the reference speed (the fast state of
#: the two-core host the benchmark was defined on)
REFERENCE_S = 0.0175


class _Cell:
    __slots__ = ("value", "items")

    def __init__(self, value: int, items: list) -> None:
        self.value = value
        self.items = items


def _kernel() -> int:
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i * i
    table = {}
    for i in range(PROBE_OBJECTS):
        table[(i, i & 7)] = _Cell(i, [i])
    for cell in table.values():
        total += cell.value
    return total


def probe() -> float:
    """Seconds one run of the reference kernel takes right now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def probes(count: int) -> list:
    return [probe() for _ in range(count)]


def speed_factor(samples) -> float:
    """Multiply a measured time by this to get the reference-speed
    time (1.0 without samples)."""
    if not samples:
        return 1.0
    return REFERENCE_S / statistics.median(samples)
