"""Host-speed normalisation: program time in reference-host seconds.

The benchmark runs on a few cores of a shared host whose speed drifts:
a fixed pure-Python loop on a 2-CPU x86_64 guest took from 6 to 9 ms
within six minutes, in steps that last tens of seconds.  Raw wall times
of two runs of the same code then differ by as much as the host's speed
did between them.

A :class:`HostSpeed` tracks that drift with a fixed calibration kernel
(:func:`kernel`, a few hundred microseconds of attribute reads, calls
and dict updates) run briefly between units of the program's work.  A
probe's *slowdown* is the kernel's time over :data:`REFERENCE_KERNEL_S`.
One probe is noisy -- the host's speed also swings within milliseconds
-- so each phase of a run (one sweep, the operation stream, a set-up
phase) is divided by the mean slowdown of the probes taken during it,
and reads as if the host ran the kernel in exactly
:data:`REFERENCE_KERNEL_S`.  The kernel runs none of the program's code:
a change that makes the program 10% slower makes every normalised time
10% longer, whatever the host does meanwhile.

Probe time is never counted as program time: callers probe outside the
intervals they time, or subtract what :meth:`HostSpeed.poll` returns.
"""

from __future__ import annotations

import bisect
import statistics
import time
from typing import List, Tuple

#: Kernel seconds that define slowdown 1.0: a round figure near the
#: kernel's time on a 2-CPU 2.1 GHz Xeon guest under Python 3.11.
REFERENCE_KERNEL_S = 0.0006
#: Kernel runs per probe; a probe records their median, so one
#: preempted run does not skew it.
KERNEL_RUNS = 3
#: Probes at each break of a short phase (see :meth:`HostSpeed.probe`).
BURST = 4
#: A poll probes when this long has passed since the last probe.
PROBE_EVERY_S = 0.1
#: Share of the probes at either end a slowdown leaves out.
TRIM = 0.2
#: Iterations of the kernel's loop.
KERNEL_STEPS = 2000
#: Untimed kernel runs before the first probe.
WARMUP_RUNS = 20


class _Node:
    __slots__ = ("value", "next")

    def __init__(self, value: int, nxt: "_Node | None") -> None:
        self.value = value
        self.next = nxt


def _chain(length: int) -> _Node:
    head = None
    for value in range(length):
        head = _Node(value, head)
    return head


def _step(node: _Node, table: dict) -> _Node:
    table[node.value & 63] = table.get(node.value & 63, 0) + node.value
    return node.next


def kernel(chain: _Node) -> int:
    """Fixed interpreter work: walk *chain*, calling and updating a dict.

    Allocates no container objects, so it neither triggers nor waits
    on the cyclic garbage collector of the program it runs beside.
    """
    table: dict = {}
    node = chain
    for _ in range(KERNEL_STEPS):
        node = _step(node, table)
        if node is None:
            node = chain
    return len(table)


class HostSpeed:
    """Probes of the host's speed, taken between units of the program's work."""

    def __init__(self) -> None:
        self.every = PROBE_EVERY_S
        #: midpoint of each probe, ascending
        self.times: List[float] = []
        #: each probe's slowdown (median kernel seconds / reference)
        self.slowdowns: List[float] = []
        self._chain = _chain(256)
        self._due = 0.0
        # the interpreter specialises the kernel's bytecode on its first
        # runs, so those are slower than every later one
        for _ in range(WARMUP_RUNS):
            kernel(self._chain)

    def probe(self, times: int = 1) -> float:
        """Take *times* probes now; returns the seconds they took.

        A phase with few probes (a set-up step, a short campaign) takes
        several at each of its breaks.
        """
        first = time.perf_counter()
        for _ in range(times):
            started = time.perf_counter()
            runs = []
            for _ in range(KERNEL_RUNS):
                begin = time.perf_counter()
                kernel(self._chain)
                runs.append(time.perf_counter() - begin)
            ended = time.perf_counter()
            self.times.append((started + ended) / 2)
            self.slowdowns.append(statistics.median(runs) / REFERENCE_KERNEL_S)
        self._due = ended + self.every
        return ended - first

    def poll(self) -> float:
        """Probe if one is due; returns the seconds spent (0.0 if none)."""
        if time.perf_counter() < self._due:
            return 0.0
        return self.probe()

    def slowdown(self, start: float, end: float) -> float:
        """Slowdown over [start, end], from the probes inside it and the
        nearest probe on either side.

        Probes are taken at a steady pace, so their mean weighs each
        moment of the interval alike, as the interval's own time does.
        The mean leaves out the fastest and the slowest :data:`TRIM` of
        the probes: a single probe can catch a burst far from the
        interval's average, and a short phase has only a few probes.
        Call it once a probe has been taken after *end*.
        """
        if not self.times:
            raise ValueError("no host-speed probes taken")
        low = max(bisect.bisect_left(self.times, start) - 1, 0)
        high = bisect.bisect_right(self.times, end) + 1
        ordered = sorted(self.slowdowns[low:high])
        cut = int(len(ordered) * TRIM)
        return statistics.fmean(ordered[cut : len(ordered) - cut])

    def normalise(self, spans: List[Tuple[float, float]]) -> List[float]:
        """Reference-host seconds of each (start, end) in *spans*, one phase.

        All are divided by the phase's slowdown, from the first start to
        the last end.
        """
        slowdown = self.slowdown(spans[0][0], spans[-1][1])
        return [(end - start) / slowdown for start, end in spans]

    def median_slowdown(self) -> float:
        return statistics.median(self.slowdowns) if self.slowdowns else 1.0
