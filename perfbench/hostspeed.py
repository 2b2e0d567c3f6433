"""Host-speed reference: a fixed kernel timed beside the program.

On a shared 2-CPU host the speed of a CPU changes by up to 2x within
seconds: the same fixed work, in one process, takes 1.7x longer in one
ten-second window than in another, with little or no steal recorded,
and numpy-bound and interpreter-bound work slow down together.  Every
timing of the program moves with the host, so raw timings of runs
minutes apart differ by more than any useful regression bound.

The benchmark therefore times this fixed kernel (batched complex solves
and an interpreter loop, about 10 ms; it calls nothing of the program)
on the CPU the program runs on, right before and after each timed
interval, and reports the interval at the reference speed: multiplied
by :meth:`HostSpeed.factor` of its two brackets, ``NOMINAL_S`` over
their mean.  A change to the program moves the scaled timings as much as
the raw ones; a change of the host's speed mostly does not.  The raw
timings and the kernel's samples are kept in the run's provenance.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Median kernel time on the host the benchmark was sized on (2-CPU
#: x86-64 container, quiet period); it only sets the scale of the
#: reported timings.
NOMINAL_S = 0.010

_RNG = np.random.default_rng(0)
_A = _RNG.standard_normal((24, 40, 40)) + 1j * _RNG.standard_normal((24, 40, 40))
_B = _RNG.standard_normal((24, 40, 1)) + 0j


def kernel() -> None:
    """The fixed reference work: batched complex solves, as the batched
    engine does them, and an interpreter-bound loop."""
    for _ in range(6):
        np.linalg.solve(_A, _B)
    acc: dict[int, int] = {}
    for i in range(24000):
        acc[i % 97] = acc.get(i % 97, 0) + 3 * i


class HostSpeed:
    """Samples of the reference kernel taken during a run.

    A timed interval is bracketed by a sample before and one after it;
    :meth:`factor` of the two brackets scales the interval to the
    reference speed.  The host's speed switches between states that
    last seconds, so a factor from the interval's own brackets tracks
    it where one factor for the whole run would not.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent_s = 0.0
        self.spent_cpu_s = 0.0
        kernel()   # the first call pays numpy's lazy set-up

    def measure(self, n: int = 1) -> float:
        """Time the kernel ``n`` times; returns the median seconds."""
        times = []
        for _ in range(n):
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - t0)
            self.spent_cpu_s += time.process_time() - cpu0
        self.samples += times
        self.spent_s += sum(times)
        return statistics.median(times)

    @staticmethod
    def factor(before: float, after: float) -> float:
        """Reference speed over the host's speed between two samples:
        multiply a time measured between them by it."""
        return NOMINAL_S / ((before + after) / 2)

    def record(self) -> dict:
        q1, q2, q3 = (statistics.quantiles(self.samples, n=4)
                      if len(self.samples) > 1 else [self.samples[0]] * 3)
        return {"samples": len(self.samples), "kernel_median_ms": 1e3 * q2,
                "kernel_iqr_share": (q3 - q1) / q2}
