"""Shared resources with waiting queues.

:class:`Resource` models a fixed number of identical slots (threads,
connections, CPU cores) that processes acquire and release.  Requests
that cannot be served immediately queue in FIFO order.

Requests support the context-manager protocol so a typical usage is::

    with resource.request() as req:
        yield req            # wait until a slot is free
        yield env.timeout(service_time)
    # slot released automatically

A pending request can also be *cancelled* — this is essential for
"wait with timeout" patterns such as mod_jk's ``cache_acquire_timeout``::

    req = pool.request()
    outcome = yield req | env.timeout(0.3)
    if req not in outcome:
        req.cancel()         # give up on the slot

Grant value
-----------
A granted request's value is the request itself, so ``yield req``
evaluates to ``req`` while the slot is held.  That value is a
self-reference — a one-object cycle that reference counting cannot
free — so :meth:`Resource.release` drops it (the value becomes
``None``).  A released request stays ``triggered``; releasing it
again (directly or through ``cancel_or_release``) still raises
:class:`~repro.errors.SimulationError`, because it no longer holds a
slot.  One request is allocated per served request per tier, so
leaving the cycle in place would hand the cyclic garbage collector
the bulk of a run's garbage.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Optional

from repro.errors import SimulationError
from repro.sim.events import _PENDING, Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment


class Request(Event):
    """A pending or granted claim on one slot of a :class:`Resource`."""

    __slots__ = ("resource", "priority", "issued_at")

    def __init__(self, resource: "Resource", priority: float = 0.0) -> None:
        # Event.__init__ inlined: a request is allocated per served
        # request per tier, one of the kernel's dominant allocations.
        # (``Resource.request`` builds instances via ``__new__`` with
        # the same field layout; keep the two in sync.)
        env = resource.env
        self.env = env
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self._defused = False
        self.resource = resource
        self.priority = priority
        #: Time the request was issued (used for queue-wait metrics).
        self.issued_at = env._now
        resource._do_request(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc_val, exc_tb) -> None:
        # cancel_or_release() inlined — one __exit__ per served request.
        if self._value is not _PENDING:
            self.resource.release(self)
        else:
            self.resource._withdraw(self)

    def cancel(self) -> None:
        """Withdraw a request that has not been granted yet."""
        if self.triggered:
            raise SimulationError(
                "cannot cancel a granted request; release it instead")
        self.resource._withdraw(self)

    def cancel_or_release(self) -> None:
        """Withdraw if still pending, release if already granted."""
        if self.triggered:
            self.resource.release(self)
        else:
            self.resource._withdraw(self)


class Resource:
    """``capacity`` interchangeable slots with a FIFO wait queue."""

    __slots__ = ("env", "_capacity", "_users", "_waiting")

    def __init__(self, env: "Environment", capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1, got {}".format(capacity))
        self.env = env
        self._capacity = int(capacity)
        self._users: list[Request] = []
        self._waiting: deque[Request] = deque()

    def __repr__(self) -> str:
        return "<{} capacity={} in_use={} queued={}>".format(
            type(self).__name__, self._capacity, self.count, len(self._waiting))

    @property
    def capacity(self) -> int:
        """Total number of slots."""
        return self._capacity

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self._users)

    @property
    def available(self) -> int:
        """Number of free slots."""
        return self._capacity - len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiting)

    def request(self, priority: float = 0.0, _new=Request.__new__,
                _cls=Request) -> Request:
        """Claim one slot; the returned event triggers when granted."""
        event = _new(_cls)
        env = self.env
        event.env = env
        event.callbacks = []
        event._ok = True
        event._defused = False
        event.resource = self
        event.priority = priority
        event.issued_at = env._now
        users = self._users
        if len(users) < self._capacity and not self._waiting:
            users.append(event)
            # Fresh request: trigger directly, skipping succeed().
            event._value = event
            env._trigger_now(event)
        else:
            event._value = _PENDING
            self._insert_waiting(event)
        return event

    def release(self, request: Request) -> None:
        """Return a granted slot to the pool and admit the next waiter."""
        users = self._users
        try:
            users.remove(request)
        except ValueError:
            raise SimulationError(
                "release of a request that does not hold a slot") from None
        # Drop the grant's self-reference (see "Grant value" above).
        request._value = None
        # Admit waiters — this runs once per served request.
        waiting = self._waiting
        if waiting:
            env = self.env
            capacity = self._capacity
            while waiting and len(users) < capacity:
                nxt = waiting.popleft()
                users.append(nxt)
                nxt._value = nxt
                env._trigger_now(nxt)

    # -- internal ----------------------------------------------------------
    def _do_request(self, request: Request) -> None:
        if len(self._users) < self._capacity and not self._waiting:
            self._users.append(request)
            # Fresh request: trigger directly, skipping succeed().
            request._value = request
            self.env._trigger_now(request)
        else:
            self._insert_waiting(request)

    def _insert_waiting(self, request: Request) -> None:
        self._waiting.append(request)

    def _withdraw(self, request: Request) -> None:
        try:
            self._waiting.remove(request)
        except ValueError:
            raise SimulationError(
                "cancel of a request that is not waiting") from None


class PriorityResource(Resource):
    """A :class:`Resource` whose wait queue is ordered by priority.

    Lower ``priority`` values are served first; ties break FIFO.
    """

    __slots__ = ()

    def _insert_waiting(self, request: Request) -> None:
        index = len(self._waiting)
        for i, waiting in enumerate(self._waiting):
            if waiting.priority > request.priority:
                index = i
                break
        self._waiting.insert(index, request)


class Container:
    """A homogeneous quantity (bytes, tokens) with put/get semantics.

    Unlike :class:`Resource`, amounts are divisible: a ``get`` for 5 can
    be satisfied by two earlier ``put`` calls of 3 and 2.  Used for the
    dirty-page byte pool in :mod:`repro.osmodel.pagecache`.
    """

    __slots__ = ("env", "_capacity", "_level", "_getters", "_putters")

    def __init__(self, env: "Environment", capacity: float = float("inf"),
                 init: float = 0.0) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if init < 0 or init > capacity:
            raise ValueError("init must lie in [0, capacity]")
        self.env = env
        self._capacity = capacity
        self._level = float(init)
        self._getters: list[tuple[float, Event]] = []
        self._putters: list[tuple[float, Event]] = []

    @property
    def capacity(self) -> float:
        return self._capacity

    @property
    def level(self) -> float:
        """The amount currently stored."""
        return self._level

    def put(self, amount: float) -> Event:
        """Add ``amount``; triggers when there is room for all of it."""
        if amount <= 0:
            raise ValueError("amount must be positive")
        event = Event(self.env)
        self._putters.append((amount, event))
        self._settle()
        return event

    def get(self, amount: float) -> Event:
        """Remove ``amount``; triggers when that much is available."""
        if amount <= 0:
            raise ValueError("amount must be positive")
        event = Event(self.env)
        self._getters.append((amount, event))
        self._settle()
        return event

    def _settle(self) -> None:
        env = self.env
        while True:
            progressed = False
            if self._putters:
                amount, event = self._putters[0]
                if self._level + amount <= self._capacity:
                    self._level += amount
                    self._putters.pop(0)
                    event._value = amount
                    env._trigger_now(event)
                    progressed = True
            if self._getters:
                amount, event = self._getters[0]
                if amount <= self._level:
                    self._level -= amount
                    self._getters.pop(0)
                    event._value = amount
                    env._trigger_now(event)
                    progressed = True
            if not progressed:
                return
