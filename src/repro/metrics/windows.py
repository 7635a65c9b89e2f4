"""Fixed-window counters and utilisation accounting.

The paper's methodology counts events (e.g. VLRT requests) and measures
utilisation in **50 ms windows** — coarser monitoring averages
millibottlenecks away entirely.  :class:`WindowedCounter` bins discrete
events into such windows; :class:`BusyTracker` integrates busy time of a
multi-slot resource (a CPU) so utilisation per window can be derived
exactly rather than sampled.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from typing import Optional

from repro.errors import AnalysisError
from repro.metrics.timeseries import TimeSeries

#: Window length used throughout the paper's figures (50 milliseconds).
PAPER_WINDOW = 0.050


def window_index(time: float, window: float) -> int:
    """Index of the fixed window containing ``time``.

    Uses a small relative epsilon so that times which are an exact
    multiple of ``window`` up to float rounding (0.3 / 0.05, say) land
    in the window they open rather than the one they close.
    """
    return int(math.floor(time / window + 1e-9))


def window_start(time: float, window: float) -> float:
    """Start time of the fixed window containing ``time``."""
    return window_index(time, window) * window


class WindowedCounter:
    """Counts events into fixed, contiguous time windows."""

    def __init__(self, window: float = PAPER_WINDOW, name: str = "") -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = window
        self.name = name
        self._counts: dict[int, int] = {}

    def record(self, time: float, count: int = 1) -> None:
        """Add ``count`` events at ``time``."""
        if time < 0:
            raise AnalysisError("negative timestamp")
        index = window_index(time, self.window)
        self._counts[index] = self._counts.get(index, 0) + count

    @property
    def total(self) -> int:
        """Total events recorded."""
        return sum(self._counts.values())

    def count_in_window(self, index: int) -> int:
        """Events in window ``index`` (window start = index * window)."""
        return self._counts.get(index, 0)

    def series(self, until: Optional[float] = None) -> TimeSeries:
        """Dense per-window counts (zeros included) as a TimeSeries.

        Each point is stamped at the window start.  ``until`` extends the
        series with trailing zero windows up to that time.
        """
        out = TimeSeries(self.name)
        if not self._counts and until is None:
            return out
        last = max(self._counts) if self._counts else -1
        if until is not None:
            last = max(last, int(math.ceil(until / self.window)) - 1)
        for index in range(0, last + 1):
            out.append(index * self.window, self._counts.get(index, 0))
        return out

    def peak(self) -> tuple[float, int]:
        """(window start, count) of the busiest window."""
        if not self._counts:
            raise AnalysisError("no events recorded")
        index = max(self._counts, key=lambda i: self._counts[i])
        return index * self.window, self._counts[index]


class BusyTracker:
    """Exact busy-time integration for a multi-slot resource.

    Call :meth:`acquire` when a slot starts doing work and
    :meth:`release` when it stops; the tracker integrates
    ``busy_slots dt`` so that utilisation over any interval is exact.
    Separate trackers are kept per "kind" of work by the CPU model
    (user time vs iowait).

    Every acquire/release appends a ``(time, cumulative busy-seconds)``
    checkpoint.  The checkpoints are packed into two ``array("d")``
    buffers: there are two per CPU slice, and the monotonicity check
    in acquire/release already covers them.
    """

    def __init__(self, slots: int, name: str = "") -> None:
        if slots < 1:
            raise ValueError("slots must be >= 1")
        self.slots = slots
        self.name = name
        self._busy = 0
        self._last_change = 0.0
        self._accumulated = 0.0
        #: Checkpoint times and the cumulative busy-seconds at each.
        self._times = array("d", (0.0,))
        self._values = array("d", (0.0,))

    @property
    def busy_slots(self) -> int:
        return self._busy

    # acquire() and release() advance the integral inline: they run
    # twice per CPU slice.
    def acquire(self, now: float, count: int = 1) -> None:
        """Mark ``count`` more slots busy from ``now`` on."""
        last = self._last_change
        if now < last:
            raise AnalysisError("time went backwards in BusyTracker")
        busy = self._busy
        self._accumulated = accumulated = (
            self._accumulated + busy * (now - last))
        self._last_change = now
        self._busy = busy = busy + count
        if busy > self.slots:
            raise AnalysisError(
                "{} slots busy but only {} exist".format(busy, self.slots))
        self._times.append(now)
        self._values.append(accumulated)

    def release(self, now: float, count: int = 1) -> None:
        """Mark ``count`` slots idle from ``now`` on."""
        last = self._last_change
        if now < last:
            raise AnalysisError("time went backwards in BusyTracker")
        busy = self._busy
        self._accumulated = accumulated = (
            self._accumulated + busy * (now - last))
        self._last_change = now
        self._busy = busy = busy - count
        if busy < 0:
            raise AnalysisError("released more slots than acquired")
        self._times.append(now)
        self._values.append(accumulated)

    def busy_seconds(self, now: float) -> float:
        """Cumulative busy slot-seconds up to ``now``."""
        return self._accumulated + self._busy * (now - self._last_change)

    def utilization(self, start: float, end: float) -> float:
        """Mean utilisation (0..1) over ``[start, end)``, exact."""
        if end <= start:
            raise AnalysisError("empty interval")
        used = self._busy_between(start, end)
        return used / ((end - start) * self.slots)

    def _busy_between(self, start: float, end: float) -> float:
        return self._cumulative_at(end) - self._cumulative_at(start)

    def _cumulative_at(self, time: float) -> float:
        if time >= self._last_change:
            return self._accumulated + self._busy * (time - self._last_change)
        # Interpolate between checkpoints: busy level is constant between
        # consecutive checkpoints, so linear interpolation of the
        # cumulative integral is exact.
        times = self._times
        values = self._values
        index = bisect_right(times, time) - 1
        if index < 0:
            return 0.0
        if index + 1 < len(times):
            t0, t1 = times[index], times[index + 1]
            v0, v1 = values[index], values[index + 1]
            if t1 == t0:
                return v1
            return v0 + (v1 - v0) * (time - t0) / (t1 - t0)
        return values[index]

    def utilization_series(self, window: float, until: float,
                           start: float = 0.0) -> TimeSeries:
        """Per-window utilisation from ``start`` to ``until``.

        Each point is stamped at the window start; this is the exact
        counterpart of the paper's fine-grained CPU plots.
        """
        if window <= 0:
            raise AnalysisError("window must be positive")
        out = TimeSeries(self.name + ".util")
        edge = start
        while edge + window <= until + 1e-12:
            out.append(edge, self.utilization(edge, edge + window))
            edge += window
        return out
