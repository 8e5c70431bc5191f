"""How fast the host runs right now, from a fixed reference workload.

The benchmark runs on a few virtual CPUs of a shared host.  The same code
runs up to half again slower while neighbours are busy, each virtual CPU on
its own and in stretches of a fraction of a second to minutes, and the guest
sees no steal time for it: process CPU time grows with wall time.  Timing a
fixed reference workload tells how fast the host is, and

    normalized = measured * REFERENCE_S / reference

is a time on a host that runs the reference in ``REFERENCE_S`` seconds.  The
reference is a pure-Python integer loop plus a loop of numpy operations on
small complex arrays, the two kinds of work ``qforms`` does; it does not
touch ``qforms``, so no change to the library moves it.

``sample`` times the whole reference between timed blocks.  ``Probe``
samples the speed during a single-threaded block: a timer signal runs a
fifth of the reference every ``INTERVAL_S``, because the speed changes within
a step of a few seconds.
"""

from __future__ import annotations

import os
import signal
import statistics
import time

import numpy as np

# the reference's fastest time on the 2-vCPU Linux VM the bounds were set on
# (Python 3.11.7, numpy 2.4.6); a fixed constant, so normalized times stay
# comparable between commits
REFERENCE_S = 0.035
REPEATS = 3
_PY_N = 250_000
_NP_N = 500
# fixed values; numpy.random is not imported, as it would add to peak_rss_mb
_SMALL = np.exp(0.37j * np.arange(2400.0)).reshape(4, 600)
_COLS = np.arange(1, 300)
# a probe runs a fifth of the reference (about 7-10 ms) every 100 ms of a block
_SLICES = 5
INTERVAL_S = 0.1


def _reference(slices: int = 1) -> float:
    """Runs 1/slices of the reference workload."""
    s = 0
    for i in range(_PY_N // slices):
        s += i * i % 7
    acc = 0.0
    for _ in range(_NP_N // slices):
        a = _SMALL[:, 1:300] * _SMALL[:, 2:301]
        b = np.zeros_like(a)
        b[:, ::2] = b[:, ::2] + 2 * _SMALL[:, _COLS[::2]]
        acc += float(np.abs(a - b).max())
    return s + acc


def _fastest() -> float:
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _reference()
        best = min(best, time.perf_counter() - t0)
    return best


def sample(every_cpu: bool = False) -> float:
    """Seconds the reference takes now: the fastest of ``REPEATS``.

    A single-threaded block runs on the CPU the process is on, so by default
    the reference runs there.  With ``every_cpu`` it runs pinned to each CPU
    the process may use in turn and the mean is returned: a block whose
    threads share its work across the CPUs runs at their mean speed.
    """
    if not every_cpu:
        return _fastest()
    allowed = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            times.append(_fastest())
    finally:
        os.sched_setaffinity(0, allowed)
    return statistics.fmean(times)


def normalize(seconds: float, reference: float) -> float:
    return seconds * REFERENCE_S / reference


class Probe:
    """Times a single-threaded block and the host's speed during it.

    On exit, ``seconds`` is the block's wall time without the probes, and
    ``reference`` the reference's time estimated from the probes: one at each
    end and one per timer tick in between.  A probe runs between bytecodes of
    the main thread, so one due during a long C call runs when it returns.
    """

    def __enter__(self):
        self._probes: list[float] = []
        self._spent = 0.0
        self._probe()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        t1 = time.perf_counter()
        signal.signal(signal.SIGALRM, self._previous)
        self._probe()
        self.seconds = t1 - self._t0 - self._spent
        self.reference = statistics.fmean(self._probes) * _SLICES
        return False

    def _on_alarm(self, _signum, _frame):
        t0 = time.perf_counter()
        self._probe()
        self._spent += time.perf_counter() - t0

    def _probe(self):
        t0 = time.perf_counter()
        _reference(_SLICES)
        self._probes.append(time.perf_counter() - t0)
