"""Machine-speed calibration: a fixed reference computation timed around each request.

On a shared virtual machine the same code runs at speeds up to 1.8x apart,
in phases from a second to minutes long.  A request's latency alone cannot
tell a slower program from a slower phase of the machine.  The benchmark
therefore times this kernel, which uses no cascadeg2 code, just before and
just after every request, and scales the request's latency by
``REFERENCE_S / kernel time``: the latency the request would have had in
a phase where the kernel takes ``REFERENCE_S``.

The kernel mixes the kinds of work a request does: scipy's ``expm`` on a
5x5 matrix, numpy operations on short arrays, and plain Python loops.

Each vCPU has phases of its own, which can change within a second.  So a
request that runs in the benchmark's process is pinned with the kernel to
one CPU and also sampled inside: :class:`Sampler` runs the kernel from a
timer signal every ``SAMPLE_EVERY_S`` while the request runs, and takes the
handler's time back out of the request's latency.  A request that spreads
its work over a process pool is scaled by the kernel's mean time over
every CPU instead.
"""

from __future__ import annotations

import os
import signal
import statistics
import time

import numpy as np
from scipy.linalg import expm

# Seconds the kernel takes at reference speed: its time on a 2-vCPU Xeon VM
# (2.0 GHz, Python 3.11, numpy 2.4, scipy 1.17) in that machine's fast phase.
REFERENCE_S = 1.4e-3
SAMPLE_EVERY_S = 0.05

_MATRIX = np.arange(25.0).reshape(5, 5) / 25.0 - np.eye(5)
_VECTOR = np.linspace(0.0, 1.0, 26)


def _work() -> float:
    total = 0.0
    for _ in range(24):
        total += float(expm(_MATRIX)[0, 0])
    x = _VECTOR
    for _ in range(200):
        x = np.sqrt(np.abs(1.0001 * x + 0.5))
    table: dict[int, int] = {}
    acc = 0
    for i in range(5000):
        acc += i * i % 7
        table[i % 97] = acc
    return total + float(x[0]) + acc


def _timed_work() -> float:
    _work()
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


def kernel_seconds(cpus: list[int] | None = None) -> float:
    """Wall time of one run of the reference kernel.

    An untimed run goes first.  It absorbs what the preceding request
    leaves behind, such as cold caches or the copy-on-write faults a
    parent process takes after forking a pool, so that the program under
    test does not change the kernel's time.  With ``cpus``, the kernel runs
    pinned to each of them in turn and the mean time is returned.
    """
    if cpus is None:
        return _timed_work()
    allowed = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            times.append(_timed_work())
    finally:
        os.sched_setaffinity(0, allowed)
    return statistics.fmean(times)


def scale(seconds: float, kernels: list[float]) -> float:
    """``seconds`` at reference speed, given kernel times taken over that stretch."""
    return seconds * REFERENCE_S * statistics.fmean(1.0 / k for k in kernels)


class Sampler:
    """Runs the kernel every ``interval`` seconds from SIGALRM while active.

    ``kernels`` holds each kernel time and ``handled`` the (start, end) of
    each handler run, so the caller can take the handler's time out of the
    stretch it timed.  An interval of None samples nothing.
    """

    def __init__(self, interval: float | None):
        self.interval = interval
        self.kernels: list[float] = []
        self.handled: list[tuple[float, float]] = []
        self._previous = None

    def _handler(self, signum, frame) -> None:
        start = time.perf_counter()
        self.kernels.append(kernel_seconds())
        self.handled.append((start, time.perf_counter()))

    def __enter__(self) -> "Sampler":
        self.kernels.clear()
        self.handled.clear()
        if self.interval is not None:
            self._previous = signal.signal(signal.SIGALRM, self._handler)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc_info) -> None:
        if self.interval is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)

    def paused(self, start: float, end: float) -> float:
        """Handler time that fell inside [start, end]."""
        return sum(max(0.0, min(hi, end) - max(lo, start)) for lo, hi in self.handled)
