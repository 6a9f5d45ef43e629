"""Machine-speed reference for steady timings on a shared host.

The host this benchmark was tuned on changes speed by up to 2x within a
minute (other tenants share its cores and caches). A single run cannot
average that away. So the benchmark runs a fixed reference loop in short
bursts between operations, and expresses each timing at reference speed:

    normalised = measured * REFERENCE_S / reference time measured nearby

The loop does the program's kind of work: small FFTs, small matrix products
and interpreted Python. So it slows and speeds up with the program, and the
ratio stays steady while the host drifts. REFERENCE_S is a fixed constant,
one iteration at the host's usual speed. It only sets the scale, so a
normalised time reads like a raw time on that host. The records keep the
raw times and every reference sample.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 25e-6  # one reference iteration at the tuning host's usual speed
BURST_S = 0.04       # length of one burst between operations
EVERY_S = 0.5        # at most one burst per this much program time
MARGIN_S = 1.0       # samples this close to an interval calibrate it

_x = np.random.default_rng(0).standard_normal(512)
_m = np.random.default_rng(1).standard_normal((8, 8))
_w = np.hanning(512)


def _iteration():
    np.fft.rfft(_x * _w)
    _m @ _m
    sum(range(300))


class Reference:
    """Reference samples of one run: (time, seconds per iteration)."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self.spent = 0.0  # seconds spent in bursts
        self.active = True
        self._last = float("-inf")

    def burst(self, seconds: float = BURST_S) -> None:
        t0 = time.perf_counter()
        n = 0
        while time.perf_counter() - t0 < seconds:
            for _ in range(10):
                _iteration()
            n += 10
        t1 = time.perf_counter()
        self.samples.append(((t0 + t1) / 2, (t1 - t0) / n))
        self.spent += t1 - t0
        self._last = t1

    def maybe(self) -> None:
        """A burst, if the last one is more than EVERY_S old; called only
        between operations, never inside one."""
        if self.active and time.perf_counter() - self._last >= EVERY_S:
            self.burst()

    def factor(self, t0: float, t1: float) -> float:
        """REFERENCE_S over the median reference time near [t0, t1]. A
        single burst is noisy; the median over a pass's bursts tracks the
        host's speed to a few percent."""
        near = [s for t, s in self.samples if t0 - MARGIN_S <= t <= t1 + MARGIN_S]
        if not near:
            near = [min(self.samples, key=lambda ts: abs(ts[0] - (t0 + t1) / 2))[1]]
        return REFERENCE_S / statistics.median(near)
