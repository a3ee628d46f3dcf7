"""Machine speed sampled during a measurement.

On a small cloud VM whose host cores other tenants share, the speed left to
a process drifts by tens of percent over tens of seconds: on a 2-core Intel
Xeon VM the same covariance verdict took 1.5 s in one minute and 2.3 s in
the next.  No amount of repetition inside a 10-second run averages that out,
so every measured time is scaled to a fixed reference speed instead.

The speed is taken from a fixed probe that uses no wsnl code, so a change to
wsnl cannot change it.  The probe mixes the kinds of work the workloads do:
interpreter overhead, Philox generator construction, many small transforms
whose cost is call overhead, batched FFTs and elementwise arithmetic on a
1 MiB array.  A timer signal runs it every PROBE_INTERVAL_S while the
measurement runs, so it sees the speed of the whole interval, not just its
ends.  Probe time is subtracted from the measured time, and the probes
themselves are the speed samples.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PROBE_INTERVAL_S = 0.1
# Reported times are seconds at the speed where one probe takes this long,
# about its median on a 2-core Intel Xeon VM (4 MiB L2 per core).
REFERENCE_PROBE_S = 0.005


class SpeedSampler:
    """Context manager: runs the probe on a timer while the block runs."""

    def __init__(self) -> None:
        # transform lengths wsnl never uses, so no FFT plan it needs is warmed
        self._small = np.ones(250, dtype=np.complex128)
        self._block = np.ones((16, 240), dtype=np.complex128)
        self._big = np.ones(65536, dtype=np.complex128)
        self.probes: list[tuple[float, float, float]] = []  # (start, wall, cpu)

    def probe(self) -> None:
        """About 5 ms of work in five equal parts."""
        w0, c0 = time.perf_counter(), time.process_time()
        total = 0
        for i in range(10_000):
            total += i * i
        for key in range(36):
            np.random.Generator(np.random.Philox(key=key)).standard_normal(256)
        for _ in range(80):
            np.fft.fft(self._small) * self._small
        for _ in range(20):
            np.fft.fft(self._block)
        for _ in range(20):
            np.multiply(self._big, self._big, out=self._big)
        self.probes.append((w0, time.perf_counter() - w0, time.process_time() - c0))

    def _tick(self, signum, frame) -> None:
        self.probe()

    def __enter__(self) -> "SpeedSampler":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def spent(self, t0: float, t1: float) -> tuple[float, float]:
        """Wall and CPU seconds the probes took between perf_counter times t0 and t1."""
        inside = [(w, c) for start, w, c in self.probes if t0 <= start < t1]
        return sum(w for w, _ in inside), sum(c for _, c in inside)

    def scale(self) -> float:
        """Reference speed over measured speed: multiply a measured time by it."""
        if not self.probes:  # the block ended before the first tick
            self.probe()
        return REFERENCE_PROBE_S / statistics.median(w for _, w, _ in self.probes)
