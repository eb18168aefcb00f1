"""Machine-speed probe: timings in seconds at a fixed reference speed.

On a shared cloud VM (measured on one with 2 vCPUs) the speed of this
process drifts by up to 2x within seconds, as other tenants load the same
cores; CPU time drifts with wall time, so neither clock is steady.  The probe samples the speed while the
benchmark runs: a ``SIGALRM`` timer fires every ``PERIOD_S`` and its
handler times ``kernel``, a fixed pure-Python workload of Fraction, int and
dict operations like those of vetoflow.  ``measure`` then reports a call's
wall time minus the time spent in the probe (``raw_s``) and the same time
scaled by ``REFERENCE_S`` / the mean kernel time seen during the call
(``ref_s``): the time the call would take on a machine that runs the kernel
in exactly ``REFERENCE_S``.  A call that sees fewer than ``WINDOW``
samples is scaled by the last ``WINDOW`` samples up to its end instead, so
short calls share one smoothed speed rather than one noisy sample each.

The handler runs between bytecodes of the measured code and touches none
of its state; it costs about 4 % of the wall time, which ``raw_s`` leaves
out.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter, perf_counter_ns

PERIOD_S = 0.025
REFERENCE_S = 0.001
WINDOW = 4


def kernel() -> Fraction:
    """About 1 ms of interpreter work on a 2-vCPU cloud VM."""
    total = Fraction(0)
    for _ in range(2):
        s, d = Fraction(0), {}
        for i in range(1, 120):
            s += Fraction(1, i)
            d[i % 17] = d.get(i % 17, 0) + i
        total += s + sum(v for _, v in sorted(d.items()))
    return total


class SpeedProbe:
    def __init__(self) -> None:
        self.samples: list[float] = []  # kernel times, seconds
        self.spent = 0.0  # time inside the handler, seconds
        self._old = None

    def _sample(self, signum=None, frame=None) -> None:
        started = perf_counter()
        kernel()
        self.samples.append(perf_counter() - started)
        self.spent += perf_counter() - started

    def start(self) -> None:
        self._sample()
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old or signal.SIG_DFL)

    def measure(self, fn, *args):
        """``(fn(*args), raw_s, ref_s)``."""
        seen, spent = len(self.samples), self.spent
        started = perf_counter()
        out = fn(*args)
        raw = perf_counter() - started - (self.spent - spent)
        window = self.samples[-max(len(self.samples) - seen, WINDOW):]
        return out, raw, raw * REFERENCE_S * len(window) / sum(window)

    def clock_ns(self) -> int:
        """A nanosecond clock that stands still while the handler runs."""
        return perf_counter_ns() - round(self.spent * 1e9)

    def summary(self) -> str:
        s = self.samples
        return (f"probe samples={len(s)} kernel_ms median={1e3 * statistics.median(s):.3f} "
                f"min={1e3 * min(s):.3f} max={1e3 * max(s):.3f} spent_s={self.spent:.3f}")
