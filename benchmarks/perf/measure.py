"""Host clock, calibration kernel and summary statistics for the harness.

Everything the benchmark times goes through :func:`wall_clock`, so the
repo's wall-clock lint rule has exactly one justified exception here.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, Optional, Sequence

#: Iterations of :func:`ref_kernel`.  Fixed, so kernel seconds compare
#: across commits and machines.  The kernel runs before and after
#: every timed run (about 0.5 s per repeat).
KERNEL_ITERATIONS = 1_500_000

#: What the kernel takes on the reference box in a quiet phase.  Timings
#: are scaled by ``KERNEL_REFERENCE_S / measured kernel seconds``, so
#: they read as seconds on that box whatever phase the machine is in.
KERNEL_REFERENCE_S = 0.25


def wall_clock() -> float:
    """Monotonic host seconds (CPython: ``CLOCK_MONOTONIC``)."""
    return time.perf_counter()  # simlint: disable=SL002 -- the benchmark measures host time; this is its only clock read


def ref_kernel(iterations: int = KERNEL_ITERATIONS) -> float:
    """Seconds taken by a fixed pure-Python loop (integer arithmetic
    plus dict stores — the interpreter work the simulator is made of).
    Touches no simulator code, so it moves with the machine only."""
    acc = 0
    table: Dict[int, int] = {}
    start = wall_clock()
    for i in range(iterations):
        acc = (acc * 1103515245 + 12345 + i) & 0xFFFFFFFF
        table[i & 1023] = acc
    return wall_clock() - start


def calibrated(seconds: float, kernel_s: Sequence[float]) -> float:
    """``seconds`` scaled to the reference box by the kernel runs taken
    around it.  The box this was written on moves between phases up to
    1.6x apart that last from seconds to minutes; the kernel slows with
    them, so calibrated times repeat where raw ones do not."""
    return seconds * KERNEL_REFERENCE_S * len(kernel_s) / sum(kernel_s)


def summarize(samples: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles, min, max and ``n`` of a sample.

    With the harness's five repeats no percentile has ten samples
    beyond it, so none is reported.  ``iqr_frac`` is the distance
    between the quartiles as a share of the median (0 for n < 2).
    """
    values = sorted(samples)
    if not values:
        raise ValueError("no samples to summarize")
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {
        "median": median, "q1": q1, "q3": q3,
        "min": values[0], "max": values[-1], "n": len(values),
        "iqr_frac": (q3 - q1) / median if median else 0.0,
    }


def ratio(numerator: Optional[float],
          denominator: Optional[float]) -> Optional[float]:
    """``numerator / denominator``; ``None`` when either is missing or
    the base is zero (a ratio without a base is not a number)."""
    if numerator is None or not denominator:
        return None
    return numerator / denominator
