"""A fixed calibration kernel, to express timings at one reference speed.

The machine the benchmark runs on changes speed by up to 1.7x over
stretches of seconds to minutes (see README.md, Steadiness).  The benchmark
times the kernel right before and after every timed chunk of work and
divides the chunk's time by the kernel's; multiplied by REFERENCE_S, that
is the chunk's time at the speed where the kernel takes REFERENCE_S.

The kernel uses the standard library only, never rtpack, so no change to
the program changes it.  Its mix is the kind of work rtpack does: exact
rational arithmetic in a demand-bound sweep, integer loops and dict
updates.
"""

from __future__ import annotations

import time
from fractions import Fraction

# the kernel's time on the machine the benchmark was written on, when that
# machine ran undisturbed (2 vCPUs, Python 3.11)
REFERENCE_S = 0.0015

_TASKS = [
    (Fraction(c, 7), Fraction(d, 3), Fraction(p, 2))
    for c, d, p in ((1, 5, 9), (2, 7, 11), (3, 8, 13), (1, 4, 17), (2, 9, 19))
]


def _kernel() -> int:
    feasible = 0
    for step in range(1, 40):
        t = Fraction(step, 2)
        demand = Fraction(0)
        for wcet, deadline, period in _TASKS:
            if t >= deadline:
                demand += ((t - deadline) // period + 1) * wcet
        feasible += demand <= t
    counts: dict[int, int] = {}
    for i in range(1500):
        counts[i % 97] = counts.get(i % 97, 0) + i * i
    return feasible + len(counts)


def kernel_s() -> float:
    """Wall time of one run of the kernel."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start
