"""CPU-speed calibration for timings on a shared host.

The CPU share a shared host gives one process drifts: the same task can
take twice as long a few seconds later.  A fixed calibration kernel that
does not touch kohmoto is timed between tasks, and each task's time is
scaled to the speed at which the kernel takes REFERENCE_S seconds, as
measured by the median of the samples around the task.  A
change to the program moves its tasks' times and not the kernel's, so the
scaled times still show it; a change of host speed moves both and cancels.

The kernel mixes the kinds of work the workloads do: Python-level Fraction
arithmetic, C big-integer arithmetic and small dense numpy eigenproblems.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

import numpy

REFERENCE_S = 0.02
WINDOW = 3

_MODULUS = 5**2100
_MATRIX = numpy.add.outer(numpy.arange(60.0), numpy.arange(60.0)) % 7.0 + numpy.eye(60)


def _kernel() -> None:
    s = Fraction(0)
    for i in range(1, 1000):
        s += Fraction(1, i * i + 1)
    x = 3**2000
    for i in range(5000):
        x = (x * 7 + i) % _MODULUS
    for _ in range(30):
        numpy.linalg.eigvalsh(_MATRIX)


def sample() -> float:
    """Seconds one run of the calibration kernel takes now."""
    t0 = perf_counter()
    _kernel()
    return perf_counter() - t0


def factors(samples: list[float]) -> list[float]:
    """Factors from wall seconds to reference seconds for the n pieces of
    work done between n + 1 consecutive calibration samples.  Piece i uses
    the median of the WINDOW samples on either side of it: one 20 ms
    sample is noisy, and the host's speed holds for seconds at a time."""
    return [
        REFERENCE_S / statistics.median(samples[max(0, i + 1 - WINDOW) : i + 1 + WINDOW])
        for i in range(len(samples) - 1)
    ]
