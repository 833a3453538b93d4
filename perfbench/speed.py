"""Machine-speed sampling, so that times can be read at one reference speed.

On a shared VM the same pure-Python loop can run up to about 1.7 times
slower for seconds or minutes at a time, as other guests load the host, and
the share of slow time in a 20-second window ranges from under 40% to over
90%. Raw pass times taken at different moments therefore differ by far more
than a code change would. ``SpeedSampler`` measures the machine's speed while
a pass runs, and ``reference_s`` converts the pass time to the time it would
have taken at the reference speed.

While a sampler is active, an interval timer fires every ``INTERVAL_S`` of
wall time. Its handler runs one of two fixed pure-Python probes (a complex
and dict loop, and a SHA-256 loop; the same kinds of work qseal does) and
records ``PROBE_REF_S / probe time``: the speed, relative to the reference,
of the interval since the previous tick. The speed of the whole pass is the
mean of these, weighted by interval length, so every stretch of wall time
counts by its duration even when a long C call delays a tick. The probes'
own time is subtracted from the pass time.

Python runs signal handlers in the main thread between bytecodes, so the
sampler must be used from the main thread; nothing in qseal is wrapped or
patched.
"""

from __future__ import annotations

import hashlib
import signal
import time

INTERVAL_S = 0.005
# The probe times that define the reference speed: about the fastest each
# probe runs inside a pass on the 2-vCPU Intel Xeon VM (2.0 GHz) that this
# benchmark was written on. Changing them rescales every reported time.
PROBE_REF_S = (58e-6, 37e-6)


def _probe_loop() -> None:
    table = {}
    z = 1 + 1j
    for i in range(300):
        table[i & 63] = z * i
        z = table[i & 63] * 0.5 + 1j


def _probe_hash() -> None:
    for i in range(60):
        hashlib.sha256(i.to_bytes(8, "little")).digest()


PROBES = (_probe_loop, _probe_hash)


class SpeedSampler:
    """Context manager: samples machine speed while its block runs.

    After the block, ``speed`` is the time-weighted mean speed relative to
    the reference (1.0 = reference, 0.6 = 40% slower), ``probe_s`` the time
    the probes took, and ``ticks`` how many ran.
    """

    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        self.ticks = 0
        self.probe_s = 0.0
        self._weighted = 0.0
        self._covered = 0.0
        self._last = 0.0
        self._previous_handler = None

    def __enter__(self) -> "SpeedSampler":
        self._previous_handler = signal.signal(signal.SIGALRM, self._tick)
        self._last = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def _tick(self, signum, frame) -> None:
        which = self.ticks % len(PROBES)
        start = time.perf_counter()
        PROBES[which]()
        end = time.perf_counter()
        interval = start - self._last
        self._weighted += interval * PROBE_REF_S[which] / (end - start)
        self._covered += interval
        self.probe_s += end - start
        self.ticks += 1
        self._last = end

    @property
    def speed(self) -> float:
        if self._covered <= 0.0:
            raise RuntimeError("no speed sample was taken; the block was shorter than one interval")
        return self._weighted / self._covered

    def reference_s(self, wall_s: float) -> float:
        """``wall_s`` measured around the block, less the probes, at reference speed."""
        return (wall_s - self.probe_s) * self.speed
