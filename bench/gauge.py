"""Host speed gauge.

On a shared host the CPU runs flexjoint's kind of code (short numpy calls
driven from Python) at speeds that change by up to 1.8x within a fraction
of a second and that differ from one 30 s window to the next by 10-20%,
with other tenants' load.  A run cannot average that out, so the benchmark
measures it: between operations, at most every ``SAMPLE_EVERY`` seconds,
it times a fixed kernel that does not call flexjoint, and it scales each
pass's times to the speed at which the kernel takes ``NOMINAL_S``.

The gauge tracks the host only between operations, so it corrects passes
made of many short operations; one long call is not corrected well.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

NOMINAL_S = 1.5e-3        # kernel time at the nominal host speed
SAMPLE_EVERY = 0.1        # seconds between samples, at most

_A = np.array([[0.0, 1.0, 0.0, 0.0], [-4.0, -0.4, 0.0, 0.0],
               [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, -9.0, -0.3]])


def kernel():
    """100 RK4 steps of two damped oscillators: small numpy calls from a
    Python loop, like the program's own inner loops."""
    x = np.ones(4)
    h = 1e-3
    for _ in range(100):
        k1 = _A @ x
        k2 = _A @ (x + 0.5 * h * k1)
        k3 = _A @ (x + 0.5 * h * k2)
        k4 = _A @ (x + h * k3)
        x = x + h / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)
    return x


class Gauge:
    """Kernel timings of one pass, and the time they took."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._last = -float("inf")

    def sample(self, force=False):
        start = perf_counter()
        if not force and start - self._last < SAMPLE_EVERY:
            return
        kernel()
        self._last = perf_counter()
        self.samples.append(self._last - start)
        self.spent += self._last - start

    @property
    def scale(self):
        """Factor that turns this pass's times into times at nominal speed."""
        return NOMINAL_S / statistics.mean(self.samples)
