"""A clock that counts time in units of a fixed reference computation.

The benchmark runs on a few cores of a shared host whose speed changes
under it: on the 2-core VM the benchmark was written on, ten forked passes
over the same inputs took from 2.8 s to 4.2 s within two minutes, and a
fixed loop of Python and numpy work slowed by nearly the same factor.
Seconds then measure the host as much as the program.  :class:`RefClock`
instead re-times a small fixed computation (:func:`reference_s`) every
:data:`PERIOD_S` seconds of wall time, and between two such samples
advances by ``elapsed wall / reference time``.  An
interval read on it is the program's wall time in units of the reference
computation at that moment, so a host that slows both by the same factor
leaves it unchanged.  The time spent on the reference itself is left out.

The reference is timed in thread CPU time, so the benchmark's own pool
workers, which compete with it for the cores, do not slow it down.
"""

from __future__ import annotations

import signal
import time

import numpy as np

#: Wall seconds between two samples of the reference computation.
PERIOD_S = 0.25

#: Each sample is the median of this many runs of the reference.
RUNS = 3

_VEC = np.linspace(0.0, 1.0, 4096)
# 4 MiB, beyond the per-core caches: the program's large kernels wait on
# memory, and a busy host slows them more than cache-resident work
_BIG = np.random.default_rng(0).random(1 << 19)
_IDX = np.random.default_rng(1).integers(0, 1 << 19, size=1 << 15)


def _reference() -> float:
    """A fixed mix of interpreter, small numpy and memory-bound numpy work,
    about 1.2 ms."""
    acc = 0.0
    for i in range(24):
        table = {j: (j * i) % 97 for j in range(48)}
        acc += sum(sorted(table.values())[:4])
        acc += float(np.sqrt(_VEC * i + 1.0).sum())
    for _ in range(2):
        acc += float(_BIG[_IDX].sum()) + float(_BIG.sum())
    return acc


def reference_s() -> float:
    """CPU seconds one run of the reference takes now (median of
    :data:`RUNS`)."""
    times = []
    for _ in range(RUNS):
        t0 = time.thread_time()
        _reference()
        times.append(time.thread_time() - t0)
    return sorted(times)[RUNS // 2]


class RefClock:
    """Reference-unit time; see the module docstring.

    :meth:`start` installs a ``SIGALRM`` timer that samples the reference
    every :data:`PERIOD_S`; :meth:`stop` removes it.  Timers are not
    inherited across ``fork``, so pool workers never sample.
    """

    def __init__(self) -> None:
        self._state = (time.perf_counter(), 0.0, reference_s())
        self._busy = False
        self._previous = None
        self.samples = 1

    def now(self) -> float:
        """Reference units elapsed since the clock was made."""
        t, units, ref = self._state
        return units + (time.perf_counter() - t) / ref

    def sample(self, *_signal) -> None:
        """Re-time the reference; the time this takes is not counted."""
        if self._busy:
            return
        self._busy = True
        try:
            units = self.now()
            ref = reference_s()
            self._state = (time.perf_counter(), units, ref)
            self.samples += 1
        finally:
            self._busy = False

    def start(self) -> "RefClock":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None
