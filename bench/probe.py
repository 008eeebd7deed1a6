"""Host-speed probe: time in reference seconds.

Shared cloud hosts change speed by up to 2x every few milliseconds, for
wall and CPU time alike (a vCPU whose sibling hyperthread another tenant
loads runs at about half speed), and the share of slow time drifts over
minutes. Medians cannot remove that drift, so the timed process samples its
own speed: every 10 ms a SIGALRM handler times a fixed pure-Python spin.
The samples are uniform in time over the work, so their mean over a stretch
of work is the cost of the spin while that work ran, and

    reference seconds = wall seconds * REFERENCE_SPIN_S / mean spin time

is the time the work would take with the host at its reference speed. The
spin is the benchmark's own code, so a change to the program moves
reference seconds as it moves wall seconds. The probe costs about 3% of
the work it measures.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

INTERVAL_S = 0.01
REFERENCE_SPIN_S = 250e-6  # about the spin's cost on a two-vCPU Xeon host, Python 3.11


def _spin() -> int:
    acc = 0
    table: dict[int, int] = {}
    for i in range(1000):
        table[i & 31] = acc
        acc += (i * i) % 7 + table[i & 31] % 3
    return acc


class SpeedProbe:
    """Samples ``(time, spin seconds)`` every ``INTERVAL_S`` between
    ``start`` and ``stop``."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def _tick(self, signum, frame):
        start = time.perf_counter()
        _spin()
        self.samples.append((start, time.perf_counter() - start))

    def start(self):
        self.samples.clear()
        _spin()  # let the interpreter specialize the spin first
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> float:
        """Stop sampling; the factor from wall to reference seconds over the
        whole sampled stretch."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.samples:
            self._tick(None, None)
        return self.factor(-math.inf, math.inf)

    def factor(self, since: float, until: float) -> float | None:
        """The factor from samples taken in [since, until], or None."""
        spins = [d for t, d in self.samples if since <= t <= until]
        return REFERENCE_SPIN_S / statistics.fmean(spins) if spins else None
