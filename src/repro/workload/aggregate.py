"""Aggregated closed-loop clients for the large-N axis.

:class:`ClientPopulation` spawns one generator coroutine per emulated
user, which is the right model at RUBBoS scale (thousands of users,
tens of replicas) but hits a wall at mean-field scale: 10^5 users times
one Process + one Timeout per think period is tens of millions of
kernel events, and every per-user object lives on the heap at once.

:class:`AggregatedClientPopulation` replaces the per-user coroutines
with population *counts*:

* Users in think state are a single integer.  Once per ``tick`` the
  population draws how many of them finish thinking from the exact
  distribution — ``Binomial(thinking, 1 - exp(-tick / Z))`` for
  exponential think times — instead of scheduling one Timeout each.
* Each replica of the backend tier is an integer queue length plus at
  most one in-flight completion Timeout (FIFO, exponential service).
  Queue positions carry only their arrival timestamp, so per-request
  sojourn times are exact even though no request object exists.
* Dispatch uses JSQ(d) sampling — the O(d) choice rule of
  :class:`~repro.core.policies.PowerOfDPolicy` — with RNG draws taken
  from pre-filled buffers, so selection cost is flat in the replica
  count.

The dispatch and completion loops run on plain Python ints: replica
picks are read through a zero-copy ``memoryview`` of the integer draw
array, the choice rule is inlined into ``_dispatch``, and each
replica's completion callback binds what it touches when it is built.
Both draw buffers are iterators that refill at the read that finds
them empty, the same points on the RNG stream as an index-and-refill
buffer.  Service draws stay ``np.float64``, and so does the clock they
advance: the ``large_n`` benchmark fingerprints the ``repr`` of the
sojourn sums, which a Python-float clock would change.

Memory is O(users + replicas) regardless of run length: counters,
bounded deques, and fixed RNG buffers — no per-user Process, no
per-request object, no growing sample list.  Mean sojourn time is
additionally cross-checkable against Little's law via the in-system
area integral the population maintains.

The open variant (``arrival_rate``) swaps the binomial think draw for
a Poisson arrival draw per tick and lets completed users leave, which
is the regime the mean-field predictions of
``benchmarks/test_largeN_meanfield.py`` and ``tests/test_aggregate.py``
are stated for.
"""

from __future__ import annotations

from collections import deque
from itertools import chain
from math import inf
from numbers import Integral
from typing import Optional

import numpy as np

from repro.errors import AnalysisError, ConfigurationError
from repro.sim.events import Interrupt
from repro.workload.interactions import DEFAULT_THINK_TIME

#: RNG draws are buffered in chunks this size (refilled on exhaustion).
RNG_CHUNK = 65536


def _draws(draw):
    """An endless iterator over the items of successive ``draw()``
    chunks: the first chunk is drawn now, each next one at the read
    that finds the last one exhausted."""
    def chunks(chunk):
        while True:
            yield chunk
            del chunk  # free the spent chunk before drawing the next
            chunk = draw()

    return chain.from_iterable(chunks(draw()))


class AggregatedClientPopulation:
    """A closed (or open) client population without per-user processes.

    Parameters
    ----------
    env:
        Simulation environment.
    replicas:
        Number of backend replicas (each an independent FIFO queue).
    service_time:
        Mean of the exponential service time (1 / mu).
    users:
        Closed mode: population size.  Ignored in open mode.
    think_time:
        Closed mode: mean exponential think time Z.
    arrival_rate:
        If given, run *open*: users arrive Poisson(rate) and leave on
        completion; ``users``/``think_time`` are ignored.
    d:
        JSQ(d) sample size (1 = uniform random dispatch).
    tick:
        Aggregation period for think/arrival draws.  Smaller ticks
        approach the per-user event-driven model; the default of one
        tenth of a mean service time keeps the discretisation error
        well under the mean-field tolerance.
    seed:
        Private RNG seed (the population never touches the
        environment's RNG stream).
    """

    def __init__(self, env, replicas: int, service_time: float,
                 users: int = 0,
                 think_time: float = DEFAULT_THINK_TIME,
                 arrival_rate: Optional[float] = None,
                 d: int = 2,
                 tick: Optional[float] = None,
                 seed: int = 1) -> None:
        counts = {"replicas": replicas, "d": d}
        spans = {"service_time": service_time, "tick": tick}
        if arrival_rate is None:
            counts["users"] = users
            spans["think_time"] = think_time
        else:
            spans["arrival_rate"] = arrival_rate
        for name, value in counts.items():
            if not isinstance(value, Integral) or value < 1:
                raise ConfigurationError("{} must be an integer >= 1, "
                                         "got {!r}".format(name, value))
        for name, value in spans.items():
            if value is not None and not 0 < value < inf:
                raise ConfigurationError("{} must be positive and finite, "
                                         "got {!r}".format(name, value))
        self.env = env
        self.replicas = replicas
        self.service_time = service_time
        self.users = users
        self.think_time = think_time
        self.arrival_rate = arrival_rate
        self.d = d
        self.tick = tick if tick is not None else service_time / 10.0

        rng = np.random.default_rng(seed)
        self._rng = rng
        # Service draws stay np.float64 (the clock's type); replica
        # picks are read as plain ints through a zero-copy memoryview.
        self._svc = _draws(
            lambda: rng.standard_exponential(RNG_CHUNK) * service_time)
        self._pick = _draws(
            lambda: memoryview(rng.integers(0, replicas, RNG_CHUNK)))

        #: Jobs at each replica (queued + in service).
        self.queues = [0] * replicas
        #: FIFO arrival timestamps per replica (len == queues[i]).
        self._arrivals = [deque() for _ in range(replicas)]
        #: One reusable completion callback per replica — allocated
        #: once, so the steady state schedules zero new objects beyond
        #: the pooled Timeouts themselves.
        self._complete = self._make_completions()
        #: Users currently thinking (closed mode).
        self.thinking = users if arrival_rate is None else 0
        #: Aggregate counters.
        self.dispatched = 0
        self.completions = 0
        self.sojourn_sum = 0.0
        self.sojourn_max = 0.0
        #: Little's-law area integral of the in-system job count.
        self._in_system = 0
        self._area = 0.0
        self._area_since = 0.0
        self._process = env.process(self._run())

    # -- dispatch ----------------------------------------------------------
    def _dispatch(self, count: int, now: float) -> None:
        """JSQ(d): send each of ``count`` jobs to the least loaded of
        ``d`` replicas sampled with replacement."""
        queues = self.queues
        arrivals = self._arrivals
        complete = self._complete
        timeout = self.env.timeout
        next_svc = self._svc.__next__
        next_pick = self._pick.__next__
        others = range(self.d - 1)
        for _ in range(count):
            best = next_pick()
            load = queues[best]
            for _ in others:
                other = next_pick()
                if queues[other] < load:
                    best = other
                    load = queues[other]
            arrivals[best].append(now)
            queues[best] = load + 1
            if not load:
                timeout(next_svc()).callbacks.append(complete[best])
        self.dispatched += count
        self._area += self._in_system * (now - self._area_since)
        self._area_since = now
        self._in_system += count

    def _make_completions(self) -> list:
        """Build each replica's reusable completion callback.

        What every replica shares is bound once, in cells all the
        callbacks share; each callback adds only its index, its
        deque's ``popleft`` and itself.
        """
        queues = self.queues
        env = self.env
        timeout = env.timeout
        closed = self.arrival_rate is None
        next_svc = self._svc.__next__

        def make(idx, popleft):
            def complete(_event) -> None:
                now = env._now
                sojourn = now - popleft()
                left = queues[idx] - 1
                queues[idx] = left
                self.completions += 1
                self.sojourn_sum += sojourn
                if sojourn > self.sojourn_max:
                    self.sojourn_max = sojourn
                self._area += self._in_system * (now - self._area_since)
                self._area_since = now
                self._in_system -= 1
                if closed:
                    self.thinking += 1
                if left:
                    timeout(next_svc()).callbacks.append(complete)

            return complete

        return [make(idx, arrivals.popleft)
                for idx, arrivals in enumerate(self._arrivals)]

    # -- think/arrival loop ------------------------------------------------
    def _run(self):
        env = self.env
        tick = self.tick
        try:
            if self.arrival_rate is None:
                # Exact per-tick transition for exponential think
                # times: each thinking user independently finishes
                # with probability 1 - exp(-tick / Z).
                p_done = -np.expm1(-tick / self.think_time)
                while True:
                    yield env.timeout(tick)
                    if self.thinking:
                        done = int(self._rng.binomial(self.thinking,
                                                      p_done))
                        if done:
                            self.thinking -= done
                            self._dispatch(done, env._now)
            else:
                mean_arrivals = self.arrival_rate * tick
                while True:
                    yield env.timeout(tick)
                    arrived = int(self._rng.poisson(mean_arrivals))
                    if arrived:
                        self._dispatch(arrived, env._now)
        except Interrupt:
            return

    def stop(self) -> None:
        """Interrupt the think/arrival loop (in-flight services drain)."""
        if self._process.is_alive:
            self._process.interrupt()

    # -- metrics -----------------------------------------------------------
    @property
    def in_system(self) -> int:
        """Jobs currently queued or in service across all replicas."""
        return self._in_system

    @property
    def mean_sojourn(self) -> float:
        """Mean response time (queueing + service) over completions."""
        if not self.completions:
            return 0.0
        return self.sojourn_sum / self.completions

    @property
    def mean_waiting(self) -> float:
        """Mean queueing delay: sojourn minus one mean service time."""
        return max(0.0, self.mean_sojourn - self.service_time)

    def littles_law_sojourn(self, until: Optional[float] = None) -> float:
        """Mean sojourn via L = lambda * T (cross-check for the direct sum).

        ``T = area(in-system) / completions`` — both maintained in O(1)
        per event, so the check costs nothing extra.

        Raises
        ------
        AnalysisError
            If ``until`` is earlier than the last state change: the
            area up to that time is no longer known.
        """
        now = self.env.now if until is None else until
        if not now >= self._area_since:
            raise AnalysisError(
                "until ({}) is before the last state change ({})".format(
                    until, self._area_since))
        if not self.completions:
            return 0.0
        area = self._area + self._in_system * (now - self._area_since)
        return area / self.completions

    def __repr__(self) -> str:
        return ("<AggregatedClientPopulation replicas={} users={} "
                "completions={}>".format(
                    self.replicas, self.users, self.completions))
