"""Wall time corrected for the host's speed at the moment it was measured.

The benchmark runs on shared virtual machines whose speed drifts: the
same pure-Python loop takes up to 1.7x longer for stretches of tens of
seconds, whatever else the process does. A repetition timed in a slow
stretch reads slower although the program did the same work.

``HostClock`` brackets every measured interval with a run of a fixed
reference kernel (heap pushes and pops, dict updates, float arithmetic
and a small numpy reduction, the simulator's mix of work) and scales
the interval's wall time by ``REFERENCE_S`` over the mean of the two
bracketing reference times. A corrected time is therefore the time the
interval would have taken with the host at the speed where the kernel
takes ``REFERENCE_S``. The kernel lives here, outside the program, so a
change to the program moves corrected times exactly as it moves wall
times. Cyclic garbage collection is off while the kernel runs, so the
size of the program's heap cannot slow the kernel down.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time

import numpy as np

# The kernel's time on the 2-vCPU Xeon VM the benchmark was defined on,
# at that host's fast stretches (the lower end of its observed range).
REFERENCE_S = 0.08


def reference_kernel() -> float:
    """A fixed amount of simulator-like work; its result is unused."""
    heap: list = []
    table: dict = {}
    x = 0.5
    for i in range(60_000):
        heapq.heappush(heap, ((i * 7919) % 10007, i))
        table[i & 4095] = table.get(i & 4095, 0.0) + x
        x = x * 1.0000001 + 0.1
    while heap:
        heapq.heappop(heap)
    a = np.arange(50_000.0)
    return float((a * a).sum()) + x


class HostClock:
    """Corrects measured wall times by the bracketing reference runs."""

    def __init__(self) -> None:
        self.references: list[float] = []
        self._last = self._reference()

    def _reference(self) -> float:
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            reference_kernel()
            elapsed = time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()
        self.references.append(elapsed)
        return elapsed

    def correct(self, wall: float) -> float:
        """The corrected time of an interval that just ended; the
        reference run before it is the one that ended the previous
        interval (or the clock's construction)."""
        before, after = self._last, self._reference()
        self._last = after
        return wall * REFERENCE_S / ((before + after) / 2.0)

    def speed_note(self) -> str:
        refs = self.references
        return (
            f"host clock: {len(refs)} reference runs, median "
            f"{statistics.median(refs):.4f} s, range "
            f"{min(refs):.4f}-{max(refs):.4f} s (nominal {REFERENCE_S} s)"
        )
