"""Machine-speed calibration for the timed runs.

The shared machines this benchmark runs on switch between speed states
within seconds (a fixed loop can take 0.8 ms, 1.1 ms or 2.1 ms), as other
tenants come and go, and hematodyn's operations speed up and slow down with
them. A timed run therefore also times a fixed pure-Python loop every
quarter second: between operations, and inside long ones at the start of
each ``integrate`` call. Each operation's time (less the sampling done
inside it) is scaled by ``REFERENCE_S / c``, where ``c`` is the mean of the
samples from the last one before the operation to the first one after it.
The scaled times are milliseconds at the reference speed.

The loop uses no hematodyn code, so a change to the package cannot move it.
It mixes float arithmetic, as in the integrator, with %-formatting and
joins, as in the CSV and JSON writers: on the reference machine (2-core
Xeon, Python 3.11.7) that mix tracked the sweep, classify and stability
operations across speed states better than either part alone.
"""

from __future__ import annotations

import time
from typing import List

from stats import median

# fixed scale, about the loop time on the reference machine, seconds
REFERENCE_S = 0.0015
# loop runs per calibration sample (the sample is their median)
LOOPS_PER_SAMPLE = 3
# time between two calibration samples, seconds
SAMPLE_EVERY_S = 0.25
# value returned by one loop; pins the amount of work it does
CHECKSUM = 15525


def loop() -> int:
    """A fixed amount of interpreter work: float steps, then formatted rows."""
    x, y, z = 1.0, 2.0, 3.0
    for _ in range(2000):
        s = 1.0 / (1.0 + 1e-9 * z)
        x, y, z = (
            x + 1e-3 * ((1.7 * s - 1.0) * x),
            y + 1e-3 * (0.4 * y - 0.1 * x),
            z + 1e-3 * (y - 0.2 * z),
        )
    rows = []
    v = x * 1e-3
    for i in range(300):
        v = v * 1.0000001 + 1e-9
        rows.append("%.17g,%.17g,%d,%s\n" % (v, v * 3.0, i & 1, "stable"))
    return len("".join(rows))


def sample() -> float:
    """Median wall time of a few loops, in seconds."""
    times = []
    for _ in range(LOOPS_PER_SAMPLE):
        t0 = time.perf_counter()
        loop()
        times.append(time.perf_counter() - t0)
    return median(times)


class Sampler:
    """Calibration samples of one run, with the time they took inside operations.

    `take()` samples now. `take_if_due()` samples when SAMPLE_EVERY_S has
    passed since the last sample; called at the start of every integrate
    call, it also samples inside long operations, and adds its own time to
    `inside_s` so the caller can take it out of the operation's time.
    """

    def __init__(self):
        self.samples: List[float] = []
        self.inside_s = 0.0
        self._last = 0.0
        self.take()

    def take(self) -> float:
        t0 = time.perf_counter()
        self.samples.append(sample())
        self._last = time.perf_counter()
        return self._last - t0

    def take_if_due(self) -> None:
        if time.perf_counter() - self._last >= SAMPLE_EVERY_S:
            self.inside_s += self.take()


def scaled(latencies: List[float], local: List[float]) -> List[float]:
    """Operation times at the reference speed, given each one's loop time."""
    return [t * REFERENCE_S / c for t, c in zip(latencies, local)]
