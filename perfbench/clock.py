"""Op timing corrected for the speed of the host during the op.

The shared 2-core machine this benchmark was built on has no steal time, and
the process's CPU time equals its wall time, yet the host flips between a
fast and a slow phase, nearly 2x apart, every second or so: its other tenants
slow the cores down.  A fixed verify op of about a second took between 0.9
and 1.3 s with a calibration kernel timed right before it reading the same.
So no timing taken between ops says how fast the host was *during* an op.

The clock therefore samples the host's speed while the ops run.  Inside
``sampling()``, an interval timer raises ``SIGALRM`` every ``EVERY_S``
seconds, and the handler times one run of a small fixed kernel of exact
``fractions.Fraction`` arithmetic, which uses nothing of medburn.  The
handler's own time is taken out of every interval it falls in.  An interval's
corrected time is its remaining wall time scaled by the host's mean speed
over the kernel samples taken in it, ``NOMINAL_KERNEL_S`` over each sample's
time, so it is the time the interval would have taken on a host that runs
the kernel in ``NOMINAL_KERNEL_S``.  An interval with fewer than
``MIN_SAMPLES`` samples borrows the nearest samples around it.  Probed on a
verify op of about a second, repeated for a minute, this cut the coefficient
of variation from 17.5% of wall time to 5.1%; the kernel takes 3.3% of the
wall time, and that share is not counted.  The kernel runs with the garbage
collector off, so the program's heap does not change its time.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import signal
from fractions import Fraction
from time import perf_counter

NOMINAL_KERNEL_S = 0.0005
EVERY_S = 0.02
MIN_SAMPLES = 8


def kernel() -> Fraction:
    """Exact Gauss elimination on a fixed 6x6 rational matrix."""
    n = 6
    m = [[Fraction(1, i + j + 1) + (i == j) for j in range(n)] for i in range(n)]
    for c in range(n):
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return m[-1][-1]


class Clock:
    """Kernel samples of one run; see the module docstring."""

    def __init__(self):
        self.starts: list[float] = []  # perf_counter() at the start of each sample
        self.kernel_s: list[float] = []  # the sample's kernel time

    def _sample(self, signum, frame) -> None:
        enabled = gc.isenabled()
        gc.disable()
        start = perf_counter()
        kernel()
        end = perf_counter()
        if enabled:
            gc.enable()
        self.starts.append(start)
        self.kernel_s.append(end - start)

    @contextlib.contextmanager
    def sampling(self):
        """Sample the host's speed every ``EVERY_S`` seconds inside the block."""
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def corrected(self, start: float, end: float) -> float:
        """Nominal-speed seconds of the interval, without the sampler's own time."""
        if len(self.starts) < MIN_SAMPLES:
            raise ValueError(f"fewer than {MIN_SAMPLES} kernel samples in the run")
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        own = sum(self.kernel_s[lo:hi])
        while hi - lo < MIN_SAMPLES:  # borrow the nearest samples around it
            if hi == len(self.starts):
                lo -= 1
            elif lo > 0 and start - self.starts[lo - 1] < self.starts[hi] - end:
                lo -= 1
            else:
                hi += 1
        speed = sum(NOMINAL_KERNEL_S / k for k in self.kernel_s[lo:hi]) / (hi - lo)
        return (end - start - own) * speed
