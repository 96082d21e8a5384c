"""The machine's current speed, from a fixed unit of pure-Python work.

On a shared VM the same Python code runs up to 1.8 times slower from one
minute to the next, and wall times follow.  The benchmark times `unit()`
next to the work it measures and multiplies each wall time by
REFERENCE_MS over the unit's local median.  The timing metrics then read
as time at one fixed machine speed: the speed at which `unit()` takes
REFERENCE_MS.  The unit imports nothing from padicdyn, so a change to the
program does not change it.

The two vCPUs of such a VM change speed apart from each other, so a
process that takes samples pins itself to one CPU: a sample and the work
it scales then run on the same core.
"""

from __future__ import annotations

import os
import statistics
import time

# a round figure within the unit's range (1.6-3.1 ms) on the 2-vCPU
# shared VM the benchmark was written on
REFERENCE_MS = 2.0
SIZE = 1 << 13
# samples on each side of an op whose median scales it
WINDOW = 5


def unit() -> int:
    """Tabulate a cubic mod 2^13 and walk its orbit of 0: the same kind of
    integer arithmetic, list and bytearray work as the program's loops."""
    table = [0] * SIZE
    for x in range(SIZE):
        table[x] = (((2 * x + 3) * x + 1) * x + 1) % SIZE
    seen = bytearray(SIZE)
    x = steps = 0
    while not seen[x]:
        seen[x] = 1
        x = table[x]
        steps += 1
    return steps


def pin_to_one_cpu() -> set[int]:
    """Pin this process, and the processes it starts from now on, to its
    lowest allowed CPU; return the CPU set it had."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    return allowed


def sample_ms() -> float:
    t0 = time.perf_counter_ns()
    unit()
    return (time.perf_counter_ns() - t0) / 1e6


def scale(samples: list[float], i: int) -> float:
    """The factor for wall times taken next to samples[i]: REFERENCE_MS
    over the median of the samples within WINDOW of it."""
    return REFERENCE_MS / statistics.median(samples[max(0, i - WINDOW):i + WINDOW + 1])
