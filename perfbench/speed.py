"""Timing of ops, scaled to a nominal machine speed.

On a machine shared with other tenants the same code can run up to 1.6x
slower for tens of seconds.  Around every op, and every TICK_S inside long
ops (from a SIGALRM handler), the runner times ``reference_kernel``: fixed
pure-Python work that is not part of vclab.  Each op's latency is multiplied
by REF_NOMINAL_S over the median kernel time around and inside it, giving
seconds at the speed where the kernel takes REF_NOMINAL_S.  Kernel time spent
inside an op is subtracted from its latency.  The raw latencies are kept too.

Ops that start processes are scaled by the forked reference instead: one
kernel run in a forked child, from the fork until the child is reaped.  How
fast the machine starts, ends and wakes processes varies more than its CPU
speed, and the kernel alone does not see it.  The forked reference is taken
only around ops, never from the signal handler, so there are no ticks.
"""

from __future__ import annotations

import os
import signal
import statistics
import time
from fractions import Fraction

REF_NOMINAL_S = 0.001
# what the forked reference took on a 2-core x86_64 VM
FORKED_NOMINAL_S = 0.006
# op latencies are scaled by the kernel timings of this many neighbouring ops
REF_WINDOW = 3
TICK_S = 0.2


def reference_kernel():
    """Rationals, tuples, dicts, sets and sorting, about 1 ms."""
    acc = Fraction(0)
    table = {}
    seen = set()
    for i in range(1, 300):
        acc += Fraction(i % 7 + 1, i % 5 + 2)
        key = (i % 17, i % 5, i)
        table[key] = acc
        seen.add(key[0] * 31 + key[1])
        if i & 1:
            sorted((key[2], key[1], key[0]))
    return acc


def time_reference() -> float:
    """Fastest of three kernel runs, which ignores a preemption in one."""
    best = None
    for _ in range(3):
        t0 = time.perf_counter()
        reference_kernel()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best


def time_forked_reference() -> float:
    """One kernel run in a forked child, from the fork until it is reaped."""
    t0 = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            reference_kernel()
        finally:
            os._exit(0)
    os.waitpid(pid, 0)
    return time.perf_counter() - t0


class Speedometer:
    """Times a sequence of ops and a reference around them.

    Use as a context manager; with ``ticks`` the kernel is also timed every
    TICK_S while an op runs.  With ``forked`` the reference is the forked one,
    and there are no ticks.
    """

    def __init__(self, ticks: bool, forked: bool = False):
        self.ticks = ticks and not forked
        self.reference = time_forked_reference if forked else time_reference
        self.nominal = FORKED_NOMINAL_S if forked else REF_NOMINAL_S
        self.slots = []  # reference time before each op, and one after the last
        self.inside = []  # per op: kernel times taken while it ran
        self.raw = []  # per op: seconds, kernel time inside it excluded
        self.reference_cost_s = 0.0  # wall time spent timing the reference
        self._samples = None
        self._spent = 0.0
        self._old_handler = None

    def _tick(self, signum, frame):
        if self._samples is None:
            return
        t0 = time.perf_counter()
        self._samples.append(time_reference())
        self._spent += time.perf_counter() - t0

    def __enter__(self):
        if self.ticks:
            self._old_handler = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        if self.ticks:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._old_handler)
        self._slot()
        return False

    def _slot(self):
        t0 = time.perf_counter()
        self.slots.append(self.reference())
        self.reference_cost_s += time.perf_counter() - t0

    def time(self, fn):
        """Call ``fn`` and record its latency; return its result or raise."""
        self._slot()
        samples = []
        self._spent = 0.0
        self._samples = samples
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            self._samples = None
            self.raw.append(time.perf_counter() - t0 - self._spent)
            self.inside.append(samples)

    def scaled(self):
        """The recorded latencies in seconds at nominal speed."""
        out = []
        for i, x in enumerate(self.raw):
            window = self.slots[max(0, i - REF_WINDOW): i + REF_WINDOW + 2] + self.inside[i]
            out.append(x * self.nominal / statistics.median(window))
        return out

    def reference_median(self) -> float:
        return statistics.median(self.slots + [x for s in self.inside for x in s])
