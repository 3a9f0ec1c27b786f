"""How fast the machine runs at the moment, from a fixed calibration kernel.

On a machine shared with other tenants the same code runs up to 1.8x
slower for seconds or minutes at a time, in stretches longer than a run,
so neither the least nor the median of a run's wall times is steady from
run to run.  The benchmark therefore times the kernel below next to every
timed call (see `worker.run_pass`) and reports each call at reference
speed:

    time at reference speed = wall time * REFERENCE_S / kernel time

where the kernel time is the mean of the kernel's times just before and
just after the call.  A program that does more work still takes longer in
this measure; only the machine's slow stretches cancel out.  The kernel
mixes small-integer loops with `Fraction` (big-integer) arithmetic, the two
kinds of pure-Python work that dominate the workloads, and it is fixed:
changing it changes every reported time.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

# The kernel's time in seconds at reference speed: its least time over
# many runs on a quiet 2-vCPU Intel Xeon VM with Python 3.11.
REFERENCE_S = 0.011


def kernel() -> int:
    total = 0
    for i in range(100_000):
        total += i * i % 7
    harmonic = Fraction(0)
    for i in range(1, 900):
        harmonic += Fraction(1, i)
    return total + harmonic.numerator % 7


def measure() -> float:
    """Wall time of one run of the kernel, in seconds."""
    start = perf_counter()
    kernel()
    return perf_counter() - start
