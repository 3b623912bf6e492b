"""Machine-speed probe: scales measured times to a reference speed.

On a shared host the speed of one core drifts by a factor of up to 1.7
within a minute, and that drift would swamp any change to ddseries.  A
fixed probe is timed between jobs, at least every PROBE_EVERY_S.  A time
measured between probes is reported as

    measured * PROBE_REF_S / (median probe time within WINDOW_S of it)

that is, as it would read on a machine where the probe takes PROBE_REF_S.
The drift has more than one cause: a pure-Python loop tracked the
dict-heavy algebra jobs best, a numpy kernel with some memory traffic the
torus jobs.  The probe time is therefore the geometric mean of one of each,
which tracked all three in-process workloads (per-cycle spread 0.04-0.10,
against 0.14-0.48 unscaled).  The probe shares no code with ddseries, so a
slower library still reads slower.  Set-up times and the CLI jobs are
not scaled by it: probes in this process did not track them, and probes in
the set-up's own process made its spread worse (0.17-0.18 against 0.15).
Set-up times are scaled instead by a reference set-up timed in a fresh
process (warmup.reference): REFERENCE_REF_S over its time.  The CLI jobs
are left as measured, since that scaling made their spread worse too
(0.116 against 0.038 for job_p50_ms over ten runs).
"""

from __future__ import annotations

import statistics
import time
from bisect import bisect_left, bisect_right

PROBE_REF_S = 0.004      # the probe's time at the reference speed
PROBE_EVERY_S = 0.2
PROBE_LOOPS = 8_000
WINDOW_S = 1.0           # probes this close to a job set its factor
REFERENCE_REF_S = 0.6    # the reference set-up's time at the reference speed


class SpeedLog:
    """Probe times along a run, and the scale factor for any interval.

    The probe sees only the CPU this process runs on.  Work done in other
    processes (the CLI jobs) is left as measured: with ``enabled`` false
    nothing is probed and every factor is 1.
    """

    def __init__(self, enabled: bool = True):
        import numpy as np

        self.enabled = enabled
        self.times: list[float] = []
        self.probes: list[float] = []
        rng = np.random.default_rng(0)
        self._a, self._b = rng.random((200, 40)), rng.random((40, 300))
        self._v = np.ones(300, dtype=complex)

    def probe(self) -> float:
        """Seconds the fixed probe takes now: the geometric mean of a
        pure-Python dict loop and a numpy product with complex exponential."""
        import numpy as np

        t0 = time.perf_counter()
        acc: dict = {}
        for i in range(PROBE_LOOPS):
            k = i % 509
            acc[k] = acc.get(k, 0j) + complex(i, -i) * 0.5
        t1 = time.perf_counter()
        np.exp(2j * np.pi * (self._a @ self._b)) @ self._v
        t2 = time.perf_counter()
        return ((t1 - t0) * (t2 - t1)) ** 0.5

    def mark(self) -> None:
        if self.enabled:
            self.probes.append(self.probe())
            self.times.append(time.perf_counter())

    def maybe_mark(self) -> None:
        if not self.enabled:
            return
        if not self.times or time.perf_counter() - self.times[-1] >= PROBE_EVERY_S:
            self.mark()

    def latest_factor(self) -> float:
        return PROBE_REF_S / self.probes[-1] if self.enabled else 1.0

    def factor(self, t0: float, t1: float) -> float:
        """PROBE_REF_S over the median probe time around [t0, t1]: the probes
        within WINDOW_S of it, and at least the last one before and the
        first one after it."""
        if not self.enabled:
            return 1.0
        lo = min(bisect_left(self.times, t0 - WINDOW_S), bisect_right(self.times, t0) - 1)
        hi = max(bisect_right(self.times, t1 + WINDOW_S), bisect_left(self.times, t1) + 1)
        return PROBE_REF_S / statistics.median(self.probes[max(lo, 0):hi])
