"""CPU times rescaled to a fixed machine speed.

The benchmark's host is a shared VM whose CPU speed drifts by up to
~60 % over seconds to minutes: a fixed loop's CPU time moves with it,
while steal time stays under 1 %.  A median over a 20 s run does not
average that out, because slow spells last tens of seconds.  So every
timed phase of a batch repetition is bracketed by a short fixed
reference loop on the same thread, and its CPU time is rescaled by how
long the reference took around it::

    scaled_s = cpu_s * REFERENCE_S / mean(reference before, reference after)

(The live workload samples the reference on the server's CPU while the
server runs; see ``live.py``.)

The reported seconds are thus those of a machine on which the reference
loop takes :data:`REFERENCE_S`, which is about this VM's faster speed.
The reference is the benchmark's own code, so a change to the program
moves the scaled times exactly as it moves the CPU times.
"""

from __future__ import annotations

import heapq
import time

#: CPU seconds of one reference loop at the speed the benchmark reports in
REFERENCE_S = 0.0025
#: iterations of the reference loop: a few milliseconds of heap, tuple
#: and dict work, the operations the simulator spends its time on
REFERENCE_ITERATIONS = 3000


def _reference_loop() -> None:
    heap: list[tuple[int, int]] = []
    table: dict[int, int] = {}
    for i in range(REFERENCE_ITERATIONS):
        heapq.heappush(heap, ((i * 7919) % 1000, i))
        table[i & 255] = table.get(i & 127, 0) + i
    while heap:
        heapq.heappop(heap)


def reference_cpu_s() -> float:
    """CPU seconds of the reference loop now: the faster of two runs, so
    a stray interrupt in one does not count."""
    best = float("inf")
    for _ in range(2):
        start = time.thread_time()
        _reference_loop()
        best = min(best, time.thread_time() - start)
    return best


class ScaledClock:
    """Rescales the CPU times of consecutive phases of one thread.

    Construction measures the reference once; each :meth:`scale` call,
    made right after a phase ends, measures it again and scales the
    phase by the mean of the two measurements around it.
    """

    def __init__(self) -> None:
        #: wall seconds spent in reference loops, so callers can take
        #: them out of a wall time that encloses several phases
        self.reference_wall_s = 0.0
        self._before = self._measure()

    def _measure(self) -> float:
        start = time.perf_counter()
        cpu_s = reference_cpu_s()
        self.reference_wall_s += time.perf_counter() - start
        return cpu_s

    def scale(self, cpu_s: float) -> float:
        """``cpu_s`` of the phase that just ended, in reference seconds."""
        after = self._measure()
        scaled = cpu_s * 2.0 * REFERENCE_S / (self._before + after)
        self._before = after
        return scaled
