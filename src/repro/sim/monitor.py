"""Sampling probes for simulation state.

The paper's methodology rests on *fine-grained* monitoring: queue
lengths, CPU utilisation and dirty-page sizes sampled at 50 ms windows.
:class:`Sampler` runs a probe function on a fixed period and records
``(time, value)`` pairs; :class:`TraceLog` records discrete events.

Both are cheap when disabled: a :class:`Sampler` created with
``enabled=False`` never starts its sampling process (no timeout events
enter the kernel heap at all), and a disabled :class:`TraceLog` reduces
:meth:`TraceLog.log` to a single flag check so call sites do not need
``is not None`` guards.

Batched sampling
----------------
Each enabled :class:`Sampler` costs one generator process plus one
timeout event per tick.  At paper scale (a handful of servers) that is
noise; at the large-N axis (500+ replicas, each with a queue-length
probe) the samplers alone inject tens of thousands of events per
simulated second.  A :class:`MonitorHub` amortises this: *one*
recurring kernel event drains every attached probe in a plain loop, so
the per-tick kernel cost is constant in the number of probes.  Hubs
are **opt-in** (pass ``hub=`` to :class:`Sampler`): the default
per-sampler scheduling is part of the pinned golden event trace, and a
hub orders its probes by attach order within one event rather than by
per-sampler event sequence.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.sim.events import Interrupt

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment


class MonitorHub:
    """Drain a batch of probes from one recurring kernel event.

    All attached samplers share the hub's period and tick phase; each
    tick appends to every sampler's ``times``/``values`` in attach
    order.  The sampling process starts lazily on the first attach, so
    an unused hub schedules nothing.
    """

    __slots__ = ("env", "period", "name", "samplers", "_process")

    def __init__(self, env: "Environment", period: float = 0.050,
                 name: str = "") -> None:
        if period <= 0:
            raise ValueError("period must be positive")
        self.env = env
        self.period = period
        self.name = name
        #: Attached samplers, in attach order.
        self.samplers: list["Sampler"] = []
        self._process = None

    def attach(self, sampler: "Sampler") -> None:
        """Register ``sampler``; it joins at the next hub tick."""
        self.samplers.append(sampler)
        if self._process is None:
            self._process = self.env.process(self._run())

    def _run(self):
        env = self.env
        timeout = env.timeout
        period = self.period
        samplers = self.samplers
        try:
            while True:
                now = env._now
                # ``samplers`` is read live so late attaches join the
                # next tick without restarting the process.
                for sampler in samplers:
                    sampler.times.append(now)
                    sampler.values.append(sampler.probe())
                yield timeout(period)
        except Interrupt:
            return

    def stop(self) -> None:
        """Stop the hub tick (and with it every attached sampler)."""
        if self._process is not None and self._process.is_alive:
            self._process.interrupt("hub stopped")

    def __len__(self) -> int:
        return len(self.samplers)


class Sampler:
    """Periodically evaluate ``probe()`` and record the results.

    Parameters
    ----------
    env:
        Owning environment.
    probe:
        Zero-argument callable returning the value to record.
    period:
        Sampling period in seconds (default 50 ms, the paper's window).
    name:
        Label used in reports.
    enabled:
        When ``False`` the sampler records nothing and — crucially for
        kernel throughput — schedules nothing: the sampling process is
        never started.
    hub:
        When given (and ``enabled``), the sampler owns no process at
        all: it is attached to the :class:`MonitorHub`, which drains
        its probe on the hub's shared tick.  ``period`` is ignored in
        favour of the hub's.
    """

    __slots__ = ("env", "probe", "period", "name", "enabled", "times",
                 "values", "_process")

    def __init__(self, env: "Environment", probe: Callable[[], Any],
                 period: float = 0.050, name: str = "",
                 enabled: bool = True,
                 hub: Optional[MonitorHub] = None) -> None:
        if period <= 0:
            raise ValueError("period must be positive")
        self.env = env
        self.probe = probe
        self.period = period if hub is None else hub.period
        self.name = name
        self.enabled = enabled
        self.times: list[float] = []
        self.values: list[Any] = []
        if not enabled:
            self._process = None
        elif hub is not None:
            self._process = None
            hub.attach(self)
        else:
            self._process = env.process(self._run())

    def _run(self):
        try:
            while True:
                self.times.append(self.env.now)
                self.values.append(self.probe())
                yield self.env.timeout(self.period)
        except Interrupt:
            return

    def stop(self) -> None:
        """Stop sampling (safe to call once)."""
        if self._process is not None and self._process.is_alive:
            self._process.interrupt("sampler stopped")

    def series(self) -> tuple[list[float], list[Any]]:
        """Return ``(times, values)`` recorded so far."""
        return self.times, self.values

    def __len__(self) -> int:
        return len(self.times)


class TraceLog:
    """Append-only log of ``(time, payload)`` records."""

    __slots__ = ("env", "name", "enabled", "records")

    def __init__(self, env: "Environment", name: str = "",
                 enabled: bool = True) -> None:
        self.env = env
        self.name = name
        self.enabled = enabled
        self.records: list[tuple[float, Any]] = []

    def log(self, payload: Any) -> None:
        """Record ``payload`` at the current simulated time."""
        if self.enabled:
            self.records.append((self.env.now, payload))

    def between(self, start: float, end: float) -> list[tuple[float, Any]]:
        """Records with ``start <= time < end``."""
        return [r for r in self.records if start <= r[0] < end]

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)
