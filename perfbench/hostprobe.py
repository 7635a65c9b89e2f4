"""Host-speed probe: scales host timings to a reference host speed.

On a shared virtual machine the speed of one vCPU swings by up to 2x
over seconds to minutes as neighbours come and go, so raw wall times of
the same simulation differ by 15-30% between runs minutes apart.  The
probe runs a small, fixed pure-Python kernel (heap operations,
generator resumption, attribute access over a 4096-object working set,
like the simulator's own hot paths) from a ``SIGALRM`` handler every
:data:`PERIOD` seconds, on the same thread and core as the work it
measures.  Each stretch of host time between two kernels is scaled by
``REFERENCE_S`` over the kernel times around it, so a scaled timing
reads in seconds on a host where the kernel takes ``REFERENCE_S``.

The handler touches nothing of the simulation and allocates no
garbage-collected containers, so it cannot change what the simulation
computes; every sample's fingerprint check would show it if it did.
Its own time is left out of the scaled timing.  Never run
it under a profiler: the handler would be charged to whatever layer it
interrupted.
"""

from __future__ import annotations

import heapq
import signal
import statistics
import time

#: Seconds of host time between probe kernels (~1.5% overhead).
PERIOD = 0.02
#: Kernel time on the reference host: its typical median on the 2-vCPU
#: 2.1 GHz Xeon VM (CPython 3.11) the benchmark was first recorded on,
#: so scaled timings read close to raw host seconds there.
REFERENCE_S = 300e-6


class _Item:
    __slots__ = ("t", "v")

    def __init__(self, t: float, v: int) -> None:
        self.t = t
        self.v = v


def _resumer():
    value = 0.0
    while True:
        value = yield value + 0.25


class HostSpeedProbe:
    """Times :meth:`_kernel` every :data:`PERIOD` host seconds."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._busy = False
        self._items = [_Item(i * 0.5, i) for i in range(4096)]
        self._heap = [float(i) for i in range(64)]
        resumer = _resumer()
        next(resumer)
        self._send = resumer.send

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _kernel(self) -> None:
        items, heap, send = self._items, self._heap, self._send
        acc = 0.0
        for i in range(100):
            item = items[(i * 2654435761) & 4095]
            acc += item.t + send(item.v)
            heapq.heapreplace(heap, items[(i * 40503) & 4095].t)
        for i in range(300):
            item = items[i & 31]
            acc += item.t + send(item.v)
            item.v = i
        for _ in range(300):
            heapq.heapreplace(heap, heap[0] + 1.0)

    def _tick(self, signum, frame) -> None:
        if self._busy:  # a late tick while the last one still runs
            return
        self._busy = True
        start = time.perf_counter()
        self._kernel()
        self.starts.append(start)
        self.durations.append(time.perf_counter() - start)
        self._busy = False

    def scaled(self, start: float, end: float) -> float:
        """Host window [start, end) in reference seconds, probes excluded.

        Each stretch between two kernels is scaled by ``REFERENCE_S``
        over the median of the four kernels around it, so the scale
        follows speed changes within the window.  Raises ``ValueError``
        when no kernel ran inside the window.
        """
        inside = [(s, d) for s, d in zip(self.starts, self.durations)
                  if start <= s < end]
        if not inside:
            raise ValueError("no probe inside the timed window")
        total = 0.0
        edge = start
        for j in range(len(inside) + 1):
            stop = inside[j][0] if j < len(inside) else end
            near = [d for _, d in inside[max(0, j - 2):j + 2]]
            total += max(0.0, stop - edge) * REFERENCE_S / statistics.median(
                near)
            if j < len(inside):
                edge = inside[j][0] + inside[j][1]
        return total
