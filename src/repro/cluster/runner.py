"""Experiment execution: build, run, measure, summarise.

:class:`ExperimentRunner` owns the environment, the seeded random
generator (the single source of randomness — identical seeds give
identical event traces), the 50 ms queue-length samplers, and the
client population.  It returns an :class:`ExperimentResult`, which
carries both summary statistics and everything the figure-level
analyses need (queue timelines, CPU trackers, dispatch and lb_value
traces, ground-truth millibottleneck records).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf
from numbers import Integral
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.cluster.config import ScaleProfile
from repro.cluster.spec import TopologySpec
from repro.cluster.topology import NTierSystem, build_from_spec, build_system
from repro.core.balancer import BalancerConfig
from repro.core.remedies import RemedyBundle, get_bundle
from repro.errors import ConfigurationError
from repro.metrics.recorder import ResponseTimeRecorder
from repro.metrics.stats import ResponseTimeStats
from repro.metrics.timeseries import TimeSeries
from repro.metrics.windows import PAPER_WINDOW
from repro.netmodel.tcp import RetransmissionPolicy
from repro.sim.core import Environment
from repro.sim.monitor import MonitorHub, Sampler
from repro.workload.generator import ClientPopulation
from repro.workload.mix import WorkloadMix, read_write_mix

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.faults import FaultInjector, FaultSpec
    from repro.controlplane import ControlPlaneConfig
    from repro.resilience import ResilienceConfig
    from repro.tracing.spans import SpanTracer

#: Stream constant separating the fault injector's RNG stream from the
#: run's main generator: both derive from ``config.seed`` but never
#: share draws, so adding faults cannot perturb workload randomness
#: (and the fault timeline is identical under workers=1 and workers=N).
FAULT_RNG_STREAM = 0xFA


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything that defines one run.

    ``bundle_key`` picks a Table-I policy/mechanism combination; the
    no-balancer configuration (§III-B) is selected with
    ``use_balancer=False`` and a single-node profile.
    """

    bundle_key: str = "original_total_request"
    profile: ScaleProfile = field(default_factory=ScaleProfile)
    duration: float = 30.0
    seed: int = 42
    tomcat_millibottlenecks: bool = True
    apache_millibottlenecks: bool = False
    use_balancer: bool = True
    sample_window: float = PAPER_WINDOW
    trace_lb_values: bool = True
    trace_dispatches: bool = True
    sample_dirty_pages: bool = False
    #: Declarative fault specs injected against the built system (see
    #: :mod:`repro.cluster.faults`); empty means a fault-free run.
    faults: tuple["FaultSpec", ...] = ()
    #: Remedy layer configuration; ``None`` is the seed system.
    resilience: Optional[ResilienceConfig] = None
    #: Control-plane configuration (autoscaling, admission control,
    #: load leveling, bulkheads); ``None`` — and the all-``None``
    #: config — is the seed system, event for event.
    controlplane: Optional["ControlPlaneConfig"] = None
    #: Record a per-request span tree (see :mod:`repro.tracing`).
    #: Off by default: tracing is pure observation (the event schedule
    #: is identical either way) but retains every span in memory.
    trace_requests: bool = False
    #: Drain all samplers from one :class:`~repro.sim.monitor.MonitorHub`
    #: tick instead of one process per sampler.  Off by default — the
    #: per-sampler timeout events are part of the pinned golden event
    #: trace — but essential at the large-N axis, where per-replica
    #: samplers would otherwise dominate the schedule.
    batched_sampling: bool = False
    #: Declarative topology to build instead of the classic 3-tier
    #: shape.  Balanced boundaries without a bundle of their own fall
    #: back to ``bundle_key``; ``use_balancer`` and the
    #: millibottleneck flags are ignored (the spec carries all that).
    topology: Optional[TopologySpec] = None

    def __post_init__(self) -> None:
        for name in ("duration", "sample_window"):
            value = getattr(self, name)
            if not 0 < value < inf:
                raise ConfigurationError(
                    "{} must be positive and finite, got {!r}".format(
                        name, value))
        if not isinstance(self.seed, Integral) or self.seed < 0:
            raise ConfigurationError(
                "seed must be a non-negative integer, got {!r}".format(
                    self.seed))

    def bundle(self) -> RemedyBundle:
        return get_bundle(self.bundle_key)


@dataclass
class ExperimentResult:
    """Outcome of one run, with the paper's analysis entry points."""

    config: ExperimentConfig
    system: NTierSystem
    population: ClientPopulation
    duration: float
    #: Queue-length (in_server) timeline per server name, 50 ms samples.
    queue_series: dict[str, TimeSeries]
    #: Dirty-page timeline per host name (if sampled).
    dirty_series: dict[str, TimeSeries]
    #: Ground-truth fault records for the run (``None`` when faultless).
    fault_injector: Optional[FaultInjector] = None
    #: Per-request span tracer (``None`` unless ``trace_requests``).
    tracer: Optional["SpanTracer"] = None

    # -- response times --------------------------------------------------
    @property
    def recorder(self) -> ResponseTimeRecorder:
        return self.population.recorder

    def stats(self) -> ResponseTimeStats:
        """Table-I style summary statistics."""
        return self.recorder.stats()

    def table1_row(self) -> dict[str, float]:
        """One row of Table I for this run."""
        row = {"policy": self.config.bundle().description}
        row.update(self.stats().row())
        return row

    # -- fine-grained views -------------------------------------------------
    def cpu_utilization(self, server_name: str,
                        window: Optional[float] = None) -> TimeSeries:
        """Exact fine-grained CPU utilisation of one server's host."""
        server = self.system.server_named(server_name)
        return server.host.cpu.utilization_series(
            window or self.config.sample_window, self.duration)

    def iowait(self, server_name: str,
               window: Optional[float] = None) -> TimeSeries:
        """Exact fine-grained iowait of one server's host (Fig. 2(d))."""
        server = self.system.server_named(server_name)
        return server.host.cpu.iowait_series(
            window or self.config.sample_window, self.duration)

    def vlrt_windows(self) -> TimeSeries:
        """VLRT count per 50 ms window (Figs. 2(a)/6(a)/7(a))."""
        return self.recorder.vlrt_windows(self.config.sample_window,
                                          until=self.duration)

    def point_in_time_rt(self) -> TimeSeries:
        """Point-in-time response time (Figs. 1/3)."""
        return self.recorder.point_in_time(self.config.sample_window)

    def average_cpu(self) -> dict[str, float]:
        """Whole-run average CPU per server (Fig. 5)."""
        return {
            server.name: server.host.cpu.utilization(0.0, self.duration)
            for server in self.system.servers
        }

    def dropped_packets(self) -> int:
        """Client packets lost to web-tier accept-queue overflow."""
        return sum(frontend.socket.dropped
                   for frontend in self.system.frontends)

    # -- per-request traces -------------------------------------------------
    def traces(self) -> list:
        """All request traces, in begin order (requires tracing)."""
        if self.tracer is None:
            raise ConfigurationError(
                "run with trace_requests=True to record request traces")
        return list(self.tracer.traces.values())

    def slowest_traces(self, count: int = 5) -> list:
        """The ``count`` slowest completed requests' traces."""
        completed = [trace for trace in self.traces() if trace.completed]
        completed.sort(key=lambda trace: -trace.duration)
        return completed[:count]

    def explain_vlrt(self):
        """Trace-level VLRT explanation (dominant causes + clusters)."""
        from repro.tracing.explain import explain_vlrt

        return explain_vlrt(self.traces())

    # -- chaos metrics -----------------------------------------------------
    def error_responses(self) -> int:
        """Fast 503s returned because every backend was in Error."""
        return sum(frontend.error_responses
                   for frontend in self.system.frontends)

    def hedges_issued(self) -> int:
        return sum(hedger.hedges_issued for hedger in self.system.hedgers)

    def sheds(self) -> int:
        """Requests answered fast by a control-plane gate (admission,
        bulkhead or leveling overflow) instead of being served."""
        return sum(frontend.shed_responses
                   for frontend in self.system.frontends)

    def availability(self) -> float:
        """Successful client-visible outcomes / all client-visible outcomes.

        A 503 counts against availability even though the client got a
        (fast) response; so do control-plane sheds and abandoned
        requests — admission control trades availability for tail
        latency, and the report must show both sides of that trade.
        """
        total = self.stats().count + self.population.requests_abandoned
        if total == 0:
            return 1.0
        return (self.stats().count - self.error_responses()
                - self.sheds()) / total

    def retry_amplification(self) -> float:
        """System-side attempts per logical client request.

        Counts client attempts (application retries included) plus
        hedge copies; 1.0 means no remedy duplicated any work.
        """
        logical = (self.population.requests_completed
                   + self.population.requests_abandoned)
        if logical == 0:
            return 1.0
        return (self.population.attempts_issued
                + self.hedges_issued()) / logical

    def probe_messages(self) -> int:
        """Probe messages sent by probing policies (Prequal's pool).

        The rematch report divides this by the run length to show the
        measurement overhead a probing policy pays for its ranking.
        """
        return sum(getattr(balancer.policy, "probes_sent", 0)
                   for balancer in self.system.balancers)

    def sticky_violations(self) -> int:
        """Broken affinity promises recorded by sticky-session policies
        (a pinned member was ineligible and the session moved)."""
        return sum(getattr(balancer.policy, "violations", 0)
                   for balancer in self.system.balancers)

    def goodput(self) -> float:
        """Useful responses (no 503, not shed, under the VLRT
        threshold) per second."""
        stats = self.stats()
        useful = (stats.count - self.error_responses() - self.sheds()
                  - stats.vlrt_fraction * stats.count)
        return max(0.0, useful) / self.duration

    def summary(self) -> str:
        """A one-paragraph human-readable summary."""
        stats = self.stats()
        label = self.config.bundle_key
        if self.config.topology is not None:
            label = "topology:" + self.config.topology.name
        return (
            "{}: {} requests, avg RT {:.2f} ms, VLRT {:.2f}%, "
            "normal {:.2f}%, drops {}, millibottlenecks {}".format(
                label,
                stats.count,
                stats.mean_ms,
                100 * stats.vlrt_fraction,
                100 * stats.normal_fraction,
                self.dropped_packets(),
                len(self.system.millibottleneck_records()),
            )
        )


class ExperimentRunner:
    """Builds and runs one experiment."""

    def __init__(self, config: ExperimentConfig,
                 mix: Optional[WorkloadMix] = None) -> None:
        self.config = config
        self.mix = mix or read_write_mix()

    def run(self, env: Optional[Environment] = None) -> ExperimentResult:
        """Execute the run and return its result.

        ``env`` lets the caller supply a pre-built environment — the
        golden-trace determinism tests use this to install the
        :attr:`~repro.sim.core.Environment.trace` probe before any
        event is scheduled.  It must be a fresh environment at t=0.
        """
        config = self.config
        if env is None:
            env = Environment()
        tracer = None
        if config.trace_requests:
            from repro.tracing.spans import SpanTracer

            tracer = SpanTracer(env)
            env.tracer = tracer
        rng = np.random.default_rng(config.seed)
        profile = config.profile

        balancer_config = BalancerConfig(
            pool_size=profile.connection_pool_size,
            trace_lb_values=config.trace_lb_values,
            trace_dispatches=config.trace_dispatches,
        )
        if config.topology is not None:
            system = build_from_spec(
                env, config.topology, profile=profile, rng=rng,
                balancer_config=balancer_config,
                resilience=config.resilience,
                default_bundle=config.bundle(),
            )
        else:
            system = build_system(
                env, profile,
                bundle=config.bundle() if config.use_balancer else None,
                rng=rng,
                tomcat_millibottlenecks=config.tomcat_millibottlenecks,
                apache_millibottlenecks=config.apache_millibottlenecks,
                balancer_config=balancer_config,
                use_balancer=config.use_balancer,
                resilience=config.resilience,
            )

        if config.controlplane is not None and config.controlplane.enabled:
            from repro.controlplane.install import install_controlplane

            install_controlplane(env, system, config.controlplane)

        fault_injector = None
        if config.faults:
            from repro.cluster.faults import FaultInjector

            # The injector gets its own stream off the run seed so the
            # fault timeline is a pure function of (seed, faults) —
            # identical whether the run executes serially or in a pool.
            fault_injector = FaultInjector(
                env, rng=np.random.default_rng(
                    [config.seed, FAULT_RNG_STREAM]))
            fault_injector.inject_all(config.faults, system)

        population = ClientPopulation(
            env,
            sockets=[frontend.socket for frontend in system.frontends],
            total_clients=profile.clients,
            mix=self.mix,
            rng=rng,
            think_time=profile.think_time,
            retransmission=RetransmissionPolicy(),
            ramp_up=profile.ramp_up,
            retry=(config.resilience.retry
                   if config.resilience is not None else None),
        )

        hub = (MonitorHub(env, period=config.sample_window)
               if config.batched_sampling else None)
        queue_samplers = {
            server.name: Sampler(env, _probe(server),
                                 period=config.sample_window,
                                 name=server.name, hub=hub)
            for server in system.servers
        }
        dirty_samplers = {}
        if config.sample_dirty_pages:
            dirty_samplers = {
                host.name: Sampler(env, _dirty_probe(host),
                                   period=config.sample_window,
                                   name=host.name, hub=hub)
                for host in system.hosts
            }

        env.run(until=config.duration)
        if tracer is not None:
            tracer.finalize()

        return ExperimentResult(
            config=config,
            system=system,
            population=population,
            duration=config.duration,
            fault_injector=fault_injector,
            tracer=tracer,
            queue_series={
                name: TimeSeries.from_arrays(*sampler.series(), name=name)
                for name, sampler in queue_samplers.items()
            },
            dirty_series={
                name: TimeSeries.from_arrays(*sampler.series(), name=name)
                for name, sampler in dirty_samplers.items()
            },
        )


def _probe(server):
    return lambda: server.in_server


def _dirty_probe(host):
    return lambda: host.pagecache.dirty_bytes


def compare_policies(bundle_keys, profile: Optional[ScaleProfile] = None,
                     duration: float = 30.0, seed: int = 42,
                     mix: Optional[WorkloadMix] = None,
                     trace: bool = False, workers: int = 1):
    """Run several Table-I bundles under identical conditions.

    Each run uses the same seed, profile, duration, and workload mix,
    so differences are attributable to the policy/mechanism alone.

    With ``workers=1`` (the default) the bundles run sequentially in
    this process and full :class:`ExperimentResult` objects come back.
    With ``workers > 1`` (or ``None`` for one per CPU) the runs fan out
    across a process pool via :mod:`repro.parallel` and picklable
    :class:`~repro.parallel.ExperimentSummary` objects come back — the
    reporting surface is identical either way, and so are the per-run
    statistics: results are merged in ``bundle_keys`` order and each
    run's numbers depend only on its config.
    """
    profile = profile or ScaleProfile()
    configs = [
        ExperimentConfig(
            bundle_key=key, profile=profile, duration=duration, seed=seed,
            trace_lb_values=trace, trace_dispatches=trace)
        for key in bundle_keys
    ]
    if workers == 1:
        return [ExperimentRunner(config, mix=mix).run()
                for config in configs]
    from repro.parallel import run_experiments
    return run_experiments(configs, workers=workers, mix=mix)
