"""A fixed pure-Python kernel that measures how fast the machine runs.

The kernel mixes small-int bytecode, big-int multiply/mod and Fraction
products, the mix factoridiv spends its time in, and never touches the
program.  Each op's interpreter times it once, warm, right before the op;
the median over a run says how fast the machine ran during that run.
"""

from __future__ import annotations

import time
from fractions import Fraction

# reference_time() on the development machine at its usual speed
# (2 vCPUs at 2.1 GHz, Python 3.11.7)
REF_NOMINAL_S = 0.0175

_BIG = 3**3000
_MOD = _BIG + 12345


def reference_time() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(30_000):
        acc = (acc * 31 + i) % 1_000_003
    y = _BIG
    for _ in range(300):
        y = y * _BIG % _MOD
    f = Fraction(1)
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29) * 5:
        f *= Fraction(p, p - 1)
    return time.perf_counter() - t0
