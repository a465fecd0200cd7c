"""A fixed pure-Python loop that measures how fast the host runs right now.

The host's speed drifts by tens of percent over seconds and shifts by up to
60% between phases that last minutes. End-to-end timings are multiplied by
CAL_REF_S / (this loop's time measured beside them), so they read as on a
host where the loop takes CAL_REF_S, and runs made minutes apart stay
comparable. The loop mixes what normdesign spends its time on: Fraction
arithmetic, big-integer isqrt and small tuples in a dict. It must never
call normdesign, whose speed is what the benchmark measures.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from time import perf_counter

CAL_REF_S = 0.002


def calibrate() -> float:
    """Seconds the loop takes now, about CAL_REF_S on a 2-core x86 VM."""
    start = perf_counter()
    acc = Fraction(0)
    for i in range(1, 150):
        acc += Fraction(i, i + 3) * i
    n = 10**12 + 39
    total = 0
    for y in range(2000):
        total += isqrt(n - y * y)
    table = {}
    for i in range(2000):
        table[(i, i % 7)] = i
    return perf_counter() - start
