"""A gauge of machine speed, read between and during requests.

On the shared virtual machine the benchmark was built on, the CPU time of
one and the same request moved by up to 2x from one period to the next, in
step with every other computation (README.md).  So each request is timed
against a fixed kernel that does not use adiawell: the kernel runs before
and after each request and, through SIGPROF, every PERIOD_S CPU seconds
during it.  A request's own CPU time (the kernel's share taken out) is
scaled by REF_S over the median kernel time around it: the readings during
the request and WINDOW readings on either side.  The result is the CPU time
the request would take at the speed where the kernel takes REF_S.  Readings
are wall-clock: the process CPU clock here advances in 4 ms ticks, too
coarse for a 10 ms kernel, and the median drops the readings the
hypervisor stretched.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.25
REF_S = 0.010
WINDOW = 6

_Z = np.exp(1j * np.linspace(0.0, 6.0, 20000)) * np.linspace(0.1, 2.0, 20000)
_X = np.linspace(0.0, 3.0, 200)
_P = np.linspace(0.5, 1.5, 1000) * np.exp(0.3j)


def kernel() -> tuple[float, float]:
    """CPU and wall seconds of a fixed mix of complex ufuncs, a sine matrix and Python."""
    cpu, wall = time.process_time(), time.perf_counter()
    np.arcsin(_Z)
    np.sqrt(1.0 - _Z * _Z)
    np.sin(np.multiply.outer(_X, _P)) @ _P
    total = 0
    for i in range(5000):
        total += i * i
    return time.process_time() - cpu, time.perf_counter() - wall


class Gauge:
    """Kernel readings in the order taken; `timed` runs one request between them."""

    def __init__(self, during: bool = True) -> None:
        self.cpu: list[float] = []
        self.samples: list[float] = []
        self.during = during
        kernel()  # the first call pays for page faults and numpy set-up
        for _ in range(WINDOW):
            self.sample()
        if during:
            signal.signal(signal.SIGPROF, self.sample)

    def speed(self) -> float:
        """Median kernel seconds so far."""
        return statistics.median(self.samples)

    def sample(self, *_signal) -> None:
        cpu, wall = kernel()
        self.cpu.append(cpu)
        self.samples.append(wall)

    def timed(self, fn):
        """Run fn(); return its result, its own CPU seconds and a reading span.

        The span indexes the readings taken just before, during and just
        after the call; pass it to `scale` once the run is over.
        """
        before = len(self.samples) - 1
        cpu = time.process_time()
        if self.during:
            signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        try:
            result = fn()
        finally:
            if self.during:
                signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        own = time.process_time() - cpu - sum(self.cpu[before + 1:])
        self.sample()
        return result, own, (before, len(self.samples))

    def scale(self, own: float, span: tuple[int, int]) -> float:
        """CPU seconds at the reference speed, from the readings around span."""
        lo, hi = span
        near = self.samples[max(0, lo - WINDOW + 1):hi + WINDOW - 1]
        return own * REF_S / statistics.median(near)
