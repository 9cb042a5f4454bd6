"""Host-speed reference for the benchmark's timings.

The shared 2-core hosts this benchmark runs on change speed by up to ~50%
over minutes, which is more than any bound a timing could be held to.  So
while a run is timed, a profiling timer interrupts it every TICK_S of CPU
time to time a small fixed piece of pure-Python work, shaped like the
program's hot path (a sparse product of polynomials with Fraction
coefficients).  The samples are spread evenly over the run's CPU time, so
their mean over NOMINAL_S is the slowness the run itself met.  A duration
minus the kernel time inside it, divided by that slowness, is the duration
in nominal seconds: seconds on a host where the kernel takes NOMINAL_S.
The kernel does not use dnbrackets, so a change to the program does not
move it.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

TICK_S = 0.05
# the kernel's usual mean time on a 2-core x86-64 host with Python 3.11,
# where ITEM_LIMIT_S was chosen; it sets the scale of the nominal seconds
NOMINAL_S = 0.0014

_A = {((1, i), (2, j)): Fraction(i + 1, j + 2) for i in range(1, 5) for j in range(1, 5)}
_B = {((1, i), (3, j)): Fraction(2 * j - 1, i + 3) for i in range(1, 4) for j in range(1, 5)}


def _kernel() -> dict:
    out: dict = {}
    for m1, c1 in _A.items():
        for m2, c2 in _B.items():
            exps = dict(m1)
            for v, e in m2:
                exps[v] = exps.get(v, 0) + e
            key = tuple(sorted(exps.items()))
            s = out.get(key, 0) + c1 * c2
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


class HostSpeed:
    """Kernel samples taken while the context is open."""

    def __init__(self):
        self.kernel_s = 0.0
        self.ticks = 0

    def _tick(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        _kernel()
        self.kernel_s += time.perf_counter() - t0
        self.ticks += 1

    def __enter__(self) -> "HostSpeed":
        # the first calls run cold; then seed the estimate that the first
        # item's limit is scaled by
        for _ in range(3):
            _kernel()
        for _ in range(10):
            self._tick()
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)

    def slowness(self) -> float:
        """Mean kernel time so far over NOMINAL_S."""
        if not self.ticks:
            self._tick()
        return self.kernel_s / self.ticks / NOMINAL_S

    def timed(self, fn) -> tuple:
        """(fn(), seconds fn took without the kernel time inside it)."""
        k0 = self.kernel_s
        t0 = time.perf_counter()
        result = fn()
        return result, time.perf_counter() - t0 - (self.kernel_s - k0)
