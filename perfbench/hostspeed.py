"""Host speed, read from a fixed pure-Python kernel, and times normalised by it.

The benchmark runs on a few cores of a shared host whose speed drifts by a
third within a minute as its neighbours come and go.  The drift slows the
simulator and a small pure-Python kernel much alike, so a time divided by
the kernel time read at the same moment drifts several times less (passes
of one point that vary by 8-15% raw vary by 2-4% normalised).  Every time
among the end-to-end metrics is therefore *host-normalised*:

    raw seconds x REFERENCE_KERNEL_S / kernel seconds read around them

which is the time the work would take on a host where the kernel reads
``REFERENCE_KERNEL_S`` (what it reads on the reference host when that is
quiet, so normalised and raw seconds are close there).  Work that a change
adds to the program shows in full; only the host's momentary speed is
divided out.  Raw seconds are printed beside them.

:class:`HostClock` reads the kernel in the middle of a simulation: at the
first ``network.step`` that ends ``SEGMENT_S`` seconds or more after the
last reading it runs the kernel once, and each segment between readings is
normalised by the median reading of its neighbourhood.
:func:`bracketed` puts readings on either side of a short operation instead.
"""

from __future__ import annotations

import statistics
import time
from collections import deque
from typing import Any, Callable, TypeVar

from tracer import STEPPED, Patcher

clock = time.perf_counter
T = TypeVar("T")

#: Seconds the kernel reads between simulation steps on the reference host
#: when it is quiet (alone, with warm caches, it takes about 0.45 ms).
REFERENCE_KERNEL_S = 6.5e-4
#: Seconds of simulation (at least) between two kernel readings.
SEGMENT_S = 0.025
#: Readings on either side of a segment that make up its neighbourhood.
NEIGHBOURS = 4
#: Readings on each side of a short operation.
BRACKET_READINGS = 3

# The kernel is three short loops in the simulator's idiom: lookups scattered
# over a table of a few megabytes, tokens passed between objects through
# deques, and dict stores of fresh tuples.  Neighbours that take the core,
# crowd the caches or churn memory slow each loop differently; the sum
# tracks the simulator more closely than any one of them.
_TABLE = {i: [i] for i in range(1 << 14)}


class _Node:
    __slots__ = ("queue", "out")

    def __init__(self) -> None:
        self.queue: deque[tuple[int, int]] = deque()
        self.out: _Node = self

    def step(self) -> None:
        if self.queue:
            hops, tag = self.queue.popleft()
            self.out.queue.append((hops + 1, tag))


_NODES = [_Node() for _ in range(512)]
for _i, _node in enumerate(_NODES):
    _node.out = _NODES[(_i * 97 + 1) % len(_NODES)]
    _node.queue.extend((0, tag) for tag in range(_i % 3))


def kernel_seconds() -> float:
    """Seconds for one run of the host-speed kernel."""
    start = clock()
    acc, table = 0, _TABLE
    for i in range(1_000):
        entry = table[(acc * 40503 + i) & 0x3FFF]
        acc = (acc + entry[0] + len(entry)) & 0xFFFFF
    for _ in range(2):
        for node in _NODES:
            node.step()
    stores: dict[int, tuple[int, int]] = {}
    for i in range(800):
        entry = table[(acc * 40503 + i) & 0x3FFF]
        stores[i & 255] = (entry[0], i)
        acc = (acc + entry[0]) & 0xFFFFF
    return clock() - start


def kernel_median(readings: int) -> float:
    return statistics.median(kernel_seconds() for _ in range(readings))


def normalise(raw: float, kernel: float) -> float:
    return raw * REFERENCE_KERNEL_S / kernel


def bracketed(fn: Callable[[], T]) -> tuple[T, float, float]:
    """Run ``fn`` between kernel readings; return its result, its raw
    seconds and the median reading."""
    before = [kernel_seconds() for _ in range(BRACKET_READINGS)]
    start = clock()
    result = fn()
    raw = clock() - start
    after = [kernel_seconds() for _ in range(BRACKET_READINGS)]
    return result, raw, statistics.median(before + after)


class HostClock(Patcher):
    """Counts simulated cycles through ``network.step`` and, with
    ``calibrate``, reads the kernel between segments of the run.

    Install one per pass; :meth:`normalised` then turns the pass's wall
    time into host-normalised seconds.
    """

    def __init__(self, calibrate: bool = True) -> None:
        super().__init__()
        self.calibrate = calibrate
        self.cycles = 0
        #: (seconds of the segment, kernel seconds read after it)
        self.segments: list[tuple[float, float]] = []
        self.kernel_total = 0.0
        self._mark = clock()

    def install(self) -> None:
        host = self

        def make(fn: Callable[..., Any]) -> Callable[..., Any]:
            def step(network: Any, cycle: int) -> None:
                try:
                    fn(network, cycle)
                finally:
                    host.cycles += 1
                if host.calibrate and clock() - host._mark >= SEGMENT_S:
                    host._read()

            return step

        for owner, _ in STEPPED:
            self._patch(owner, "step", make)
        self._mark = clock()

    def _read(self) -> None:
        start = clock()
        self.segments.append((start - self._mark, kernel_seconds()))
        self._mark = clock()
        self.kernel_total += self._mark - start

    def normalised(self, wall: float) -> tuple[float, float]:
        """Raw and host-normalised seconds of ``wall``, a span that holds
        what ran while installed.  Kernel readings are taken out; each
        segment is normalised by its neighbourhood, the rest (what ran after
        the last reading) by the median of all readings."""
        raw = wall - self.kernel_total
        readings = [kernel for _, kernel in self.segments] or [kernel_median(2 * NEIGHBOURS + 1)]
        covered = sum(seconds for seconds, _ in self.segments)
        total = normalise(max(0.0, raw - covered), statistics.median(readings))
        for i, (seconds, _) in enumerate(self.segments):
            around = readings[max(0, i - NEIGHBOURS) : i + NEIGHBOURS + 1]
            total += normalise(seconds, statistics.median(around))
        return raw, total
