"""A fixed reference workload that measures how fast the host runs right now.

The benchmark's host shares its cores with other machines, and the speed it
gives one process swings by up to 1.8x over seconds to minutes.  A run's
median call time follows that drift, so two runs of the same code can differ
by 20% or more.  ``child.py`` therefore times this reference just before and
just after each call, on the same CPU, and ``run.py`` divides the call's time
by it.

The reference does the two kinds of work sawenum spends its time on, in
plain Python that does not import sawenum, so no change to the program moves
it: a depth-first count of self-avoiding walks (calls, tuples, set lookups,
as in the transfer-matrix sweep) and an exact ``Fraction`` elimination (as in
the differential-approximant solve).
"""

from __future__ import annotations

import ctypes
import math
import os
from fractions import Fraction
from time import perf_counter

#: self-avoiding walks of 11 steps on the square lattice (OEIS A001411)
SAW_STEPS = 11
SAW_COUNT = 120292
#: order of the Fraction matrix that is reduced to upper-triangular form
FRACTION_ORDER = 40


def count_walks(steps: int) -> int:
    seen = {(0, 0)}

    def walk(x: int, y: int, left: int) -> int:
        if left == 0:
            return 1
        total = 0
        for p in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if p not in seen:
                seen.add(p)
                total += walk(p[0], p[1], left - 1)
                seen.discard(p)
        return total

    return walk(0, 0, steps)


def eliminate(order: int) -> Fraction:
    """Gaussian elimination on a fixed Fraction matrix; its determinant."""
    a = [[Fraction((7 * i + 3 * j) % 11 + 1, (i + j) % 5 + 1)
          for j in range(order)] for i in range(order)]
    det = Fraction(1)
    for k in range(order):
        det *= a[k][k]
        for i in range(k + 1, order):
            f = a[i][k] / a[k][k]
            for j in range(k, order):
                a[i][j] -= f * a[k][j]
    return det


def reference_s() -> float:
    """Geometric mean of the two reference tasks' times, in seconds."""
    t0 = perf_counter()
    walks = count_walks(SAW_STEPS)
    t1 = perf_counter()
    eliminate(FRACTION_ORDER)
    t2 = perf_counter()
    if walks != SAW_COUNT:
        raise RuntimeError(f"reference walk count {walks} != {SAW_COUNT}")
    return math.sqrt((t1 - t0) * (t2 - t1))


def pin_to_current_cpu() -> None:
    """Keep this process on the CPU it runs on now, where available.

    The host's speed differs between CPUs, so the reference and the call it
    scales must run on the same one.
    """
    try:
        cpu = ctypes.CDLL(None).sched_getcpu()
        if cpu >= 0:
            os.sched_setaffinity(0, {cpu})
    except (OSError, AttributeError):
        pass
