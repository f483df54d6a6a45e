"""A fixed probe of how fast this machine runs Python right now.

The probe is the benchmark's own code, independent of ``repro``, so no
change to the simulator can move it. It mixes what the simulator's host
time is made of: a binary-heap event queue, generator sends and dict
updates. It imports nothing heavy, so a sample process can run it before
its set-up clock starts. Its time is the minimum over a few repeats.
A short form (``quick_probe``) runs between the timed blocks of a
simulation. Every probe pauses the garbage collector, so a collection of
the simulator's heap does not land in the probe's time.
"""

from __future__ import annotations

import gc
import heapq
import time

#: iterations of one probe repeat (10-16 ms on a 2-vCPU x86_64 microVM)
ITERATIONS = 12000
REPEATS = 8
#: the short form, about 2 ms
QUICK_ITERATIONS = 1500
QUICK_REPEATS = 2


def _kernel(n: int) -> int:
    def stepper():
        x = 0
        while True:
            x = yield x + 1

    heap: list = []
    table: dict = {}
    step = stepper()
    next(step)
    for i in range(n):
        heapq.heappush(heap, ((i * 0.6180339887) % 1.0, i))
        if len(heap) > 128:
            heapq.heappop(heap)
        table[i & 1023] = step.send(i)
    return len(table)


def probe(iterations: int = ITERATIONS, repeats: int = REPEATS) -> float:
    """Seconds per ITERATIONS iterations, the fastest of ``repeats``."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            _kernel(iterations)
            best = min(best, time.perf_counter() - t0)
    finally:
        if was_enabled:
            gc.enable()
    return best * ITERATIONS / iterations


def quick_probe() -> float:
    """The probe's short form, for use between timed blocks."""
    return probe(QUICK_ITERATIONS, QUICK_REPEATS)
