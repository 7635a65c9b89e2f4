"""Generator-based simulation processes.

A *process* wraps a Python generator.  The generator yields
:class:`~repro.sim.events.Event` instances; when a yielded event
triggers, the process resumes with the event's value (or, for failed
events, the event's exception is thrown into the generator).

A process is itself an event: it triggers when its generator returns,
with the generator's return value.  This lets processes wait for each
other simply by yielding them.

``_resume`` is the single hottest function of the kernel — it runs once
per event per waiting process — so it binds the generator's ``send`` /
``throw`` and its own resume callback once at construction instead of
rebuilding the bound methods on every event.  The bound resume callback
makes a live process a reference cycle; a finished process drops those
bindings so reference counting alone frees it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, Optional

from repro.errors import SimulationError
from repro.sim.events import _PENDING, Event, Initialize, Interrupt

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.core import Environment

ProcessGenerator = Generator[Event, Any, Any]


class Process(Event):
    """Drives a generator, resuming it each time a yielded event fires."""

    __slots__ = ("_generator", "_target", "_send", "_throw", "_resume_cb")

    def __init__(self, env: "Environment", generator: ProcessGenerator) -> None:
        try:
            self._send: Callable[[Any], Event] = generator.send
            self._throw: Callable[[BaseException], Event] = generator.throw
        except AttributeError:
            raise TypeError(
                "Process requires a generator, got {!r}".format(
                    generator)) from None
        # Event.__init__ inlined — one process is spawned per client
        # request, so construction is on the experiment hot path.
        self.env = env
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self._defused = False
        self._generator = generator
        #: The event this process is currently waiting on (``None`` while
        #: the process is being resumed or after it finished).
        self._target: Optional[Event] = None
        self._resume_cb: Callable[[Event], None] = self._resume
        # Initialize(env, self) with the constructor chain inlined —
        # experiments spawn one process per client request.
        init = Initialize.__new__(Initialize)
        init.env = env
        init.callbacks = [self._resume_cb]
        init._value = None
        init._ok = True
        init._defused = False
        env._trigger_urgent_now(init)

    def __repr__(self) -> str:
        name = getattr(self._generator, "__name__", repr(self._generator))
        return "<Process {} {}>".format(
            name, "done" if self.triggered else "active")

    @property
    def target(self) -> Optional[Event]:
        """The event the process is waiting for, if any."""
        return self._target

    @property
    def is_alive(self) -> bool:
        """``True`` while the underlying generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw an :class:`Interrupt` into the process.

        The interrupt is delivered asynchronously via an urgent event, so
        the caller continues first.  Interrupting a finished process is an
        error; interrupting yourself is too (a process cannot pre-empt
        itself).
        """
        if self.triggered:
            raise SimulationError(
                "cannot interrupt finished process {!r}".format(self))
        if self is self.env.active_process:
            raise SimulationError("a process cannot interrupt itself")
        interrupt_event = Event(self.env)
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event._defused = True
        interrupt_event.callbacks.append(self._deliver_interrupt)
        self.env._trigger_urgent_now(interrupt_event)

    def _deliver_interrupt(self, event: Event) -> None:
        """Deliver an interrupt unless the process finished in the meantime.

        Interrupts are delivered asynchronously, so the target process may
        legitimately terminate between :meth:`interrupt` and delivery; such
        late interrupts are dropped, matching real signal semantics.
        """
        if not self.triggered:
            self._resume(event)

    def _resume(self, event: Event) -> None:
        """Resume the generator with the outcome of ``event``."""
        env = self.env
        env._active_process = self
        send = self._send
        resume_cb = self._resume_cb

        while True:
            # Detach from the previous target: if we were interrupted
            # while waiting, the old target may fire later and must not
            # resume us again.  The dominant resume is by the target
            # itself (already processed, callbacks gone), so that case
            # skips straight to clearing the reference.
            target = self._target
            if target is not None:
                if target is not event:
                    callbacks = target.callbacks
                    if callbacks is not None:
                        try:
                            callbacks.remove(resume_cb)
                        except ValueError:
                            pass
                self._target = None

            try:
                if event._ok:
                    next_event = send(event._value)
                else:
                    # The event failed; re-raise inside the generator.
                    event._defused = True
                    next_event = self._throw(event._value)
            except StopIteration as exc:
                self._ok = True
                self._value = exc.value
                env._trigger_now(self)
                self._detach()
                break
            except BaseException as exc:
                self._ok = False
                self._value = exc
                env._trigger_now(self)
                self._detach()
                break

            # Duck-typed instead of isinstance(next_event, Event): only
            # events carry ``callbacks``, and the per-yield isinstance
            # check is measurable on this, the kernel's hottest loop.
            try:
                callbacks = next_event.callbacks
            except AttributeError:
                exc = SimulationError(
                    "process yielded a non-event: {!r}".format(next_event))
                try:
                    self._generator.throw(exc)
                except StopIteration as stop:
                    self._outcome_ok(stop.value)
                except BaseException as err:
                    self._outcome_fail(err)
                break
            if callbacks is not None:
                # Pending or triggered-but-unprocessed: wait for it.
                self._target = next_event
                callbacks.append(resume_cb)
                break

            # Already processed: feed its outcome straight back in.
            event = next_event

        env._active_process = None

    def _outcome_ok(self, value: Any) -> None:
        self._ok = True
        self._value = value
        self.env._trigger_now(self)
        self._detach()

    def _outcome_fail(self, exc: BaseException) -> None:
        self._ok = False
        self._value = exc
        self.env._trigger_now(self)
        self._detach()

    def _detach(self) -> None:
        """Drop the bound methods of a finished process.

        ``_resume_cb`` is bound to ``self`` — a cycle reference counting
        cannot free — and nothing resumes a finished process, so the
        references go as soon as the generator returns or raises.
        """
        self._resume_cb = self._send = self._throw = None
