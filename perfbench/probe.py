"""Host-speed probe: rescales timings so that a shared host's speed swings cancel.

On a shared machine the speed of one core swings by a third or more over
tens of seconds, so raw wall times of the same work scatter far more between
runs than any change worth detecting.  The probe samples that speed while an
operation runs: every ``PERIOD_S`` a timer signal runs a fixed pure-Python
loop and records the CPU time it took.  An operation's time, less the
probe's own time, is divided by the mean loop time seen during it and
multiplied by ``REFERENCE_S``: the result is the operation's time on a host
where the loop takes exactly ``REFERENCE_S``.  The probe follows work in its
own process only, so the timed work runs in this process.
"""

from __future__ import annotations

import signal
import time

PERIOD_S = 0.05
LOOP = 2_500
REFERENCE_S = 1e-3  # about the loop's CPU time on a 2.1 GHz x86-64 core

_clock = time.perf_counter


def loop_sample() -> tuple[float, float, float]:
    """Run the probe loop once: (start, wall s, CPU s)."""
    c0 = time.thread_time()
    t0 = _clock()
    acc = 0
    for i in range(LOOP):
        # small tuples, a dict and int arithmetic: the object churn of word
        # evaluation, which tracks the census's speed best
        t = (i, i + 1, i * 3, i * 2)
        d = {"a": t[0], "b": t[1]}
        acc += d["a"] * t[2] + len(t)
    return t0, _clock() - t0, time.thread_time() - c0


class Probe:
    """Context manager; ``measure`` times calls made while it is active."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float, float]] = []  # (start, wall s, CPU s)

    def _sample(self, *_signal_args) -> None:
        self.samples.append(loop_sample())

    def __enter__(self) -> "Probe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def measure(self, fn):
        """(result, raw seconds, rescaled seconds) of ``fn()``, probe time excluded."""
        first = len(self.samples)
        self._sample()  # bracket the call, so a short call has samples too
        t0 = _clock()
        result = fn()
        t1 = _clock()
        self._sample()
        mine = self.samples[first:]
        raw = t1 - t0 - sum(wall for start, wall, _ in mine if t0 <= start < t1)
        cpu = sum(cpu for _, _, cpu in mine) / len(mine)
        return result, raw, raw * REFERENCE_S / cpu


class Stopwatch:
    """``Probe.measure`` without the probe, for traced runs: raw times only."""

    def measure(self, fn):
        t0 = _clock()
        result = fn()
        wall = _clock() - t0
        return result, wall, wall
