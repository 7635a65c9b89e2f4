"""Closed-loop emulated clients.

Each client mimics one RUBBoS browser session: issue a request, wait
for the full response, think for an exponentially distributed period,
click the next page.  Closed-loop behaviour matters — it produces the
back-pressure that bounds queue growth and, during millibottlenecks,
the synchronized recovery bursts the paper observes.

With a :class:`~repro.resilience.retry.RetryPolicy` the client also
applies the application-level remedy: each attempt gets a deadline
covering both the TCP send (kernel retransmissions included) and the
wait for the response; failed attempts are retried with capped,
jittered exponential backoff up to ``max_attempts``.  An abandoned
attempt's request may still be processed by the system — that ghost
work is the retry-amplification cost the chaos suite measures.
Without a policy (the default) the code path is event-for-event
identical to the paper's client.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.metrics.recorder import CompletedRequest, ResponseTimeRecorder
from repro.netmodel.tcp import GaveUp, TcpSender
from repro.workload.interactions import DEFAULT_THINK_TIME
from repro.workload.request import Request
from repro.workload.session import Session

if TYPE_CHECKING:  # pragma: no cover
    from repro.netmodel.sockets import ListenSocket
    from repro.resilience.retry import RetryPolicy
    from repro.sim.core import Environment
    from repro.workload.mix import WorkloadMix


class Client:
    """One closed-loop emulated user bound to one web server."""

    _next_request_id = 0

    def __init__(self, env: "Environment", client_id: int,
                 socket: "ListenSocket", mix: "WorkloadMix",
                 recorder: ResponseTimeRecorder,
                 rng: np.random.Generator,
                 think_time: float = DEFAULT_THINK_TIME,
                 sender: TcpSender | None = None,
                 start_delay: float = 0.0,
                 retry: "RetryPolicy | None" = None) -> None:
        if think_time <= 0:
            raise ValueError("think_time must be positive")
        self.env = env
        self.client_id = client_id
        self.socket = socket
        self.recorder = recorder
        self.think_time = think_time
        self.session = Session(mix, rng)
        self.sender = sender or TcpSender(env)
        self._rng = rng
        self.retry = retry
        self.requests_completed = 0
        self.requests_abandoned = 0
        #: Attempts sent (== logical requests issued when not retrying).
        self.attempts_issued = 0
        #: Extra attempts beyond each logical request's first.
        self.retries_issued = 0
        self.process = env.process(self._run(start_delay))

    @classmethod
    def _allocate_request_id(cls) -> int:
        cls._next_request_id += 1
        return cls._next_request_id

    @classmethod
    def reset_request_ids(cls) -> None:
        """Restart the global request-id counter (for reproducible runs)."""
        cls._next_request_id = 0

    def _run(self, start_delay: float):
        if start_delay > 0:
            yield self.env.timeout(start_delay)
        if self.retry is not None:
            while True:
                yield from self._issue_with_retry(
                    self.session.next_interaction())
                yield self._think()
        while True:
            interaction = self.session.next_interaction()
            request = Request(self.env, self._allocate_request_id(),
                              interaction, self.client_id)
            self.attempts_issued += 1
            tracer = self.env.tracer
            if tracer is not None:
                tracer.begin(request.request_id,
                             interaction=interaction.name,
                             client=self.client_id)
            try:
                request.retransmissions = yield from self.sender.send(
                    self.socket, request)
            except GaveUp:
                # TCP gave up entirely; the user retries after thinking.
                request.completion.defuse()
                self.requests_abandoned += 1
                if tracer is not None:
                    tracer.end(request.request_id, status="abandoned")
                yield self._think()
                continue
            yield request.completion
            request.completed_at = self.env.now
            if tracer is not None:
                tracer.end(request.request_id, status="ok",
                           served_by=request.served_by,
                           retransmissions=request.retransmissions)
            self.requests_completed += 1
            self.recorder.record(CompletedRequest(
                request_id=request.request_id,
                interaction=interaction.name,
                started_at=request.created_at,
                finished_at=request.completed_at,
                retransmissions=request.retransmissions,
                served_by=request.served_by,
            ))
            yield self._think()

    def _issue_with_retry(self, interaction):
        """Process generator: one logical request under a RetryPolicy.

        Each attempt is its own :class:`Request` raced against a
        deadline; the deadline covers the TCP send (the send process is
        interrupted when it fires mid-retransmission) and the wait for
        the response.  The recorded response time spans from the first
        attempt to the winning completion, as the user experienced it.
        """
        policy = self.retry
        env = self.env
        first_started = env.now
        first_request_id: Optional[int] = None
        attempt = 1
        while True:
            request = Request(env, self._allocate_request_id(),
                              interaction, self.client_id)
            self.attempts_issued += 1
            if first_request_id is None:
                first_request_id = request.request_id
            tracer = env.tracer
            if tracer is not None:
                tracer.begin(request.request_id,
                             interaction=interaction.name,
                             client=self.client_id, attempt=attempt,
                             retry_of=(None if attempt == 1
                                       else first_request_id))
            deadline = env.timeout(policy.request_timeout)
            send = env.process(self.sender.send(self.socket, request))
            # The race may be decided while the send still runs; its
            # late failure (GaveUp, or the Interrupt below) must not
            # crash the kernel.
            send.defuse()
            completed = False
            try:
                yield send | deadline
                if send.triggered and send.ok:
                    request.retransmissions = send.value
                    yield request.completion | deadline
                    completed = request.completion.triggered
                elif not send.triggered:
                    # Deadline fired while TCP was still retransmitting.
                    send.interrupt("attempt deadline")
                # else: TCP gave up at the same instant the deadline
                # fired — a failed attempt either way.
            except GaveUp:
                pass
            if completed:
                request.completed_at = env.now
                if tracer is not None:
                    tracer.end(request.request_id, status="ok",
                               served_by=request.served_by,
                               retransmissions=request.retransmissions)
                self.requests_completed += 1
                self.recorder.record(CompletedRequest(
                    request_id=request.request_id,
                    interaction=interaction.name,
                    started_at=first_started,
                    finished_at=request.completed_at,
                    retransmissions=request.retransmissions,
                    served_by=request.served_by,
                ))
                return
            # The attempt failed; its request may still be served later
            # (ghost work — counted by retry amplification, not here).
            request.completion.defuse()
            if tracer is not None:
                tracer.end(request.request_id, status="deadline")
            if attempt >= policy.max_attempts:
                self.requests_abandoned += 1
                return
            self.retries_issued += 1
            backoff = policy.backoff_before(attempt, self._rng)
            attempt += 1
            if backoff > 0.0:
                yield env.timeout(backoff)

    def _think(self):
        return self.env.timeout(self._rng.exponential(self.think_time))
