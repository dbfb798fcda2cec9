"""Wall time of a block of work, rescaled to a reference host speed.

On a shared host the same work can run up to twice as slowly for stretches
of a fraction of a second to a minute, because of load outside the process
(on a 2-vCPU VM, each vCPU flips between a fast and a slow state on its
own). Plain wall time then measures the neighbours as much as the program. ``SpeedClock`` times a block and samples the host's speed while the
block runs: a ``SIGALRM`` interval timer interrupts the work every
``PERIOD_S`` and runs ``probe``, a fixed pure-Python loop of the operations
the library spends its time on (dict and attribute access, method calls,
heap pushes, small tuples). Each stretch of work is scaled by
``REF_PROBE_S`` over the duration of the probe that ends it:

    ref_s = sum(stretch_s * REF_PROBE_S / probe_s)

so ``ref_s`` reads as the seconds the work would take on a host where one
probe takes ``REF_PROBE_S`` (a 2-vCPU Xeon VM in its
fast state). The probe's code never changes with the library, so a change
that makes the library do more or less work moves ``ref_s`` as it moves the
wall time. ``wall_s`` is the plain wall time. The probes' own time is in
neither. They cost 2-4 % of the wall time.

The block runs in the main thread of a process with no other ``SIGALRM``
user; the previous handler and timer are restored on exit. Python runs the
handler between bytecodes, so a long call into C delays a probe and the
stretch before it is simply longer.
"""

from __future__ import annotations

import heapq
import signal
from time import perf_counter

PERIOD_S = 0.01
PROBE_ITERATIONS = 150
REF_PROBE_S = 2.2e-4


class _Node:
    __slots__ = ("vv", "log")

    def __init__(self):
        self.vv = {"dc0": 0, "dc1": 0, "dc2": 0}
        self.log = []

    def covers(self, other) -> bool:
        mine = self.vv
        for k, v in other.vv.items():
            if mine.get(k, 0) < v:
                return False
        return True


_NODES = [_Node() for _ in range(64)]
_KEYS = ("dc0", "dc1", "dc2")


def probe() -> int:
    """The fixed unit of work whose duration gives the host's speed."""
    heap = []
    covered = 0
    for i in range(PROBE_ITERATIONS):
        a = _NODES[(i * 7) % 64]
        b = _NODES[(i * 13) % 64]
        a.vv[_KEYS[i % 3]] = (a.vv[_KEYS[i % 3]] + 1) % 1000
        if a.covers(b):
            covered += 1
        heapq.heappush(heap, ((i * 31) % 97, i))
        a.log.append((i, covered))
        if len(a.log) > 8:
            a.log.clear()
    while heap:
        heapq.heappop(heap)
    return covered


# run the probe until the interpreter has specialised its bytecode, so that
# the first probes of a fresh process are not slower than the rest
for _ in range(32):
    probe()


class SpeedClock:
    """``with SpeedClock() as c: work()``, then read ``c.wall_s`` and ``c.ref_s``."""

    def __init__(self):
        self.wall_s = self.ref_s = 0.0
        self.probes: list[float] = []

    def _probe(self, *_):
        t0 = perf_counter()
        probe()
        t1 = perf_counter()
        stretch = t0 - self._last
        self.wall_s += stretch
        self.ref_s += stretch * REF_PROBE_S / (t1 - t0)
        self.probes.append(t1 - t0)
        self._last = t1

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._probe)
        self._last = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        # the last stretch is scaled by one more probe, so a block shorter
        # than one period is measured too
        self._probe()
        signal.signal(signal.SIGALRM, self._old)
        return False
