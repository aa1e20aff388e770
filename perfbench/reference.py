"""The reference: a fixed standard-library computation timed during each run.

A shared virtual machine changes speed by up to half over tens of seconds; a
fixed computation timed close to the measured work slows down with it.  Times
divided by the reference's time ("ref" units) stay comparable across such
phases, where the times themselves do not.

``setup_s`` is reported in seconds at a fixed nominal reference speed: the
set-up time divided by the reference's mean time over the same run, times
``NOMINAL_S``.
"""

import gc
from fractions import Fraction
from time import perf_counter

# The reference's time on the 2-vCPU machine the bounds were set on, rounded;
# a fixed constant, so that it only converts ref units into seconds.
NOMINAL_S = 0.010


def reference_work():
    """Exact rational products and sums, float Horner steps and tuple-keyed
    dict traffic: the kinds of work dtm2d spends its time on, none of it
    dtm2d's.  Takes 8-16 ms on a shared 2-vCPU x86-64 virtual machine."""
    acc = Fraction(0)
    for k in range(1, 120):
        x = Fraction(1)
        for j in range(1, 12):
            x = x * Fraction(j + k, j * k + 1)
        acc += x
        total = 0.0
        for _ in range(60):
            total = total * 0.5 + float(x)
    table: dict[tuple[int, int], int] = {}
    for i in range(3000):
        table[(i % 50, i // 50)] = table.get((i % 50, i // 50 - 1), 0) + i
    return acc


def time_reference() -> float:
    """Seconds one `reference_work` takes, with the cyclic garbage collector
    off, so that the figure follows the machine's speed and not the size or
    the collector settings of the heap the measured program left behind."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        reference_work()
        return perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()
