"""The machine's current speed, sampled around and during each op.

A shared VM's vCPU runs at a speed that drifts with its neighbours' load:
on the 2-core Xeon VM this benchmark was defined on, the same code took up
to about 40% longer in contended phases that last seconds to minutes.  A
whole run can fall inside one phase, so neither medians nor minima over
the run remove it.  The slowdown is per vCPU and moves interpreted and
numpy code alike, so the benchmark times a short fixed kernel on the same
thread and reports op times scaled to the speed at which the kernel takes
REFERENCE_S.

A Meter runs the kernel PROBE_REPEATS times between ops, and once per
TICK_S during an op from a SIGALRM handler.  An op's speed is the median
kernel time over the probe before it, its ticks and the probe after it;
the ticks' own time is taken out of the op's time.  Long ops are thus
scaled by the speed over their whole length, not only at their ends.
The scaling removes most of a slowdown, not all of it (README.md, Noise).
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

# Median kernel time measured on the defining machine; it sets only the unit.
REFERENCE_S = 0.00034
PROBE_REPEATS = 15
TICK_S = 0.025

_VALUES = np.linspace(0.0, 1.0, 2000)


def _kernel() -> None:
    """A fixed mix of interpreted arithmetic and small numpy array passes."""
    total = 0
    for i in range(2000):
        total += i * i % 7
    x = _VALUES
    for _ in range(6):
        x = np.sort(np.sqrt(x * x + 1.0) - 1.0)


def _timed_kernel() -> float:
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


class Meter:
    """Kernel timings of the current op window, and the time ticks took."""

    def __init__(self, ticks: bool = True) -> None:
        self.ticks = ticks
        self.window: list[float] = []
        self.spent = 0.0  # seconds spent in ticks since the last scale()
        self._last_probe: list[float] = []

    def probe(self) -> None:
        self._last_probe = [_timed_kernel() for _ in range(PROBE_REPEATS)]
        self.window.extend(self._last_probe)

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.window.append(_timed_kernel())
        self.spent += time.perf_counter() - start

    @contextmanager
    def ticking(self):
        """Tick during the block (no-op when ticks are off)."""
        if not self.ticks:
            yield
            return
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, seconds: float) -> float:
        """`seconds` at reference speed, over the window since the previous
        scale(); the window restarts from the latest probe."""
        factor = REFERENCE_S / statistics.median(self.window)
        self.window = list(self._last_probe)
        self.spent = 0.0
        return seconds * factor
