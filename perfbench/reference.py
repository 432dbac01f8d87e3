"""How fast the host runs right now, measured on a fixed reference kernel.

The benchmark's host is a small shared virtual machine whose speed drifts
by up to 2x for seconds to minutes at a time, with nothing visible from
inside (no steal time, no load). A run therefore times this kernel before
every session: a fixed pure-Python event loop (heap of tuples, slotted
event objects, generator processes, dict counters) with the instruction
mix of the simulator but none of its code, so no change to the program
can change it. Each session's host times are multiplied by
``REFERENCE_S / (mean kernel time just before and after the session)``:
its cost at the speed the bounds were fixed at.
"""

from __future__ import annotations

import time
from heapq import heappop, heappush
from typing import Generator, List

#: A typical kernel time on the machine the bounds were set on (its
#: fastest runs took 0.018 s), so scaled times read close to raw ones.
REFERENCE_S = 0.021
STEPS = 18000
PROCESSES = 64


class _Event:
    __slots__ = ("when", "callbacks", "value")


def _process() -> Generator:
    total = 0.0
    while True:
        total += yield


def kernel(steps: int = STEPS) -> float:
    """Run the reference event loop; returns its final clock."""
    heap: List[tuple] = []
    counts: dict = {}
    now = 0.0
    procs = [_process() for _ in range(PROCESSES)]
    for proc in procs:
        next(proc)
    for i in range(steps):
        ev = _Event()
        ev.when = now + (i * 7919 % 97) * 1e-4
        ev.callbacks = [procs[i % PROCESSES].send]
        ev.value = (i % 13) * 1e-3
        heappush(heap, (ev.when, i, ev))
        if len(heap) > 32:
            now, _, ev = heappop(heap)
            for callback in ev.callbacks:
                callback(ev.value)
            key = ("fn", i % 17)
            counts[key] = counts.get(key, 0) + 1
    return now


def measure() -> float:
    """Host seconds one kernel run takes right now."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
