"""Host-speed adjustment of measured times.

The reference machine is a shared 2-core VM whose speed swings by up to
1.6x on a scale of seconds, as neighbours load the host: identical work,
and CPU time with it, slows and speeds up together.  Over a run of tens of
seconds the share of slow spells differs from run to run, so raw wall
times of the same work spread by 0.15-0.25 of their median between runs.

To measure the program rather than its neighbours, the benchmark samples
the host's speed while it times a call: it runs a fixed reference kernel
(interpreter arithmetic and small dense solves, the same mix as the
program's inner loops) right before the call, every TICK_S during it from
a timer signal, and right after it.  The kernel is timed in thread CPU
time, so it measures the processor and not waits for the interpreter lock
held by the program's pool threads.  The call's wall time, less the time
the kernel took inside it, is then rescaled to the speed at which the
kernel takes KERNEL_REF_S:

    adjusted = wall * KERNEL_REF_S * mean(1 / kernel time of each sample)

The host also deschedules the VM at times ("steal" in /proc/stat): the
processor does not slow, but wall time passes with no work done, up to a
fifth of a run.  Thread CPU time does not see it, so the benchmark counts
the steal over a whole run and takes that share out of every time in it.  The counter accrues on each processor that
had work, so its sum is divided by the processors the workload keeps
busy: one for a single-threaded call, which moves between them, all of
them for a thread pool.

An adjusted second is a wall second on the host at that speed with no
steal.  A change that makes the program do more or slower work raises the
adjusted time as it raises the wall time; a spell of host load slows the
call and the kernel samples taken during it alike, and cancels.
"""

from __future__ import annotations

import math
import os
import signal
import statistics
from time import perf_counter, thread_time

import numpy as np

# The kernel's CPU time on the reference machine in a quiet spell, rounded.
KERNEL_REF_S = 0.0015
# Kernel runs per sample before and after a call; one per tick inside it.
EDGE_REPEATS = 3
TICK_S = 0.1

_A = np.random.default_rng(0).standard_normal((10, 10)) + 5.0 * np.eye(10)


def _kernel():
    s = 0.0
    for i in range(2000):
        s += (i % 7) * 0.5
    b = _A[0].copy()
    for _ in range(100):
        b = np.linalg.solve(_A, b) + 0.1
    return s + float(b[0])


def kernel_seconds(repeats=EDGE_REPEATS):
    """Median thread CPU time of a few back-to-back runs of the reference kernel."""
    times = []
    for _ in range(repeats):
        t0 = thread_time()
        _kernel()
        times.append(thread_time() - t0)
    return statistics.median(times)


def scale(kernel_samples_s):
    """Factor that rescales a wall time taken while the kernel samples were
    drawn to the host speed at which the kernel takes KERNEL_REF_S."""
    return KERNEL_REF_S * statistics.fmean(1.0 / k for k in kernel_samples_s)


def steal_seconds():
    """Time the host has kept this VM's processors from running, summed
    over processors, since boot; 0 where /proc/stat has no steal column."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return 0.0
    if len(fields) < 9 or fields[0] != "cpu":
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


class StolenShare:
    """Context manager: `share` is the part of its wall time that was steal
    for work that keeps `busy_cpus` processors busy."""

    def __init__(self, busy_cpus=1):
        self.busy_cpus = busy_cpus

    def __enter__(self):
        self._steal = steal_seconds()
        self._t0 = perf_counter()
        self.share = 0.0
        return self

    def __exit__(self, *exc):
        elapsed = perf_counter() - self._t0
        if elapsed > 0:
            stolen = (steal_seconds() - self._steal) / self.busy_cpus
            self.share = min(max(stolen / elapsed, 0.0), 0.9)
        return False


def timed(fn, sample=True):
    """Call fn() while sampling the host speed; return (result, wall_s, scale).

    wall_s excludes the kernel runs made inside the call; wall_s * scale is
    the adjusted time.  Must run on the main thread, which owns the timer
    signal.  With sample=False the call is only timed, and scale is NaN.
    """
    if not sample:
        t0 = perf_counter()
        out = fn()
        return out, perf_counter() - t0, math.nan
    samples = [kernel_seconds()]
    spent = 0.0

    def tick(signum, frame):
        nonlocal spent
        t0 = perf_counter()
        samples.append(kernel_seconds(1))
        spent += perf_counter() - t0

    previous = signal.signal(signal.SIGALRM, tick)
    signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
    t0 = perf_counter()
    try:
        out = fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        wall = perf_counter() - t0
        signal.signal(signal.SIGALRM, previous)
    samples.append(kernel_seconds())
    return out, wall - spent, scale(samples)
