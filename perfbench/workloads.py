"""The benchmark's workloads, and the child process that runs one sample.

Run as a script, this module executes one sample of one workload in
its own process and prints one JSON line: host timings, peak RSS, the
simulated fingerprint, the per-layer counters, any conservation
violations and, in ``profiled`` mode, per-layer self time.

    python3 perfbench/workloads.py --workload table1_original --seed 42 \\
        --mode timed

All four workloads use closed-loop simulated clients.  The seed is the
only input that varies between runs; it becomes the experiment seed of
the workload generator and nothing else.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import json
import pathlib
import resource
import sys
import time

from hostprobe import HostSpeedProbe

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Simulated seconds per sample.  Chosen so one sample costs 1.5-3.5
#: host seconds on the recording host; the Table-I cells include the
#: 1 s client ramp-up and two pdflush stalls (at seed 42), the geo cell
#: the whole zone-outage window (25%-55% of the run) and its recovery.
TABLE1_DURATION = 6.0
GEO_DURATION = 48.0
LARGE_N_DURATION = 4.0

#: Large-N shape: 500 replicas, 100k users, JSQ(2), 4 ms service, 1 s
#: think time (the scale point of benchmarks/test_largeN_meanfield.py).
LARGE_N = dict(replicas=500, users=100_000, service_time=0.004,
               think_time=1.0, d=2)


def _table1_config(trace_requests):
    def config(seed):
        from repro.cluster.runner import ExperimentConfig

        return ExperimentConfig(bundle_key="original_total_request",
                                duration=TABLE1_DURATION, seed=seed,
                                trace_requests=trace_requests)
    return config


def _geo_config(seed):
    from repro.cluster.geo import GEO_FAULTS
    from repro.cluster.runner import ExperimentConfig
    from repro.cluster.spec import TopologySpec

    spec = TopologySpec.geo(hierarchy=True, disk_bandwidth=3e6, clients=160)
    return ExperimentConfig(profile=spec.scale_profile(), topology=spec,
                            duration=GEO_DURATION, seed=seed,
                            trace_lb_values=False, trace_dispatches=False,
                            faults=GEO_FAULTS["zone_outage"](GEO_DURATION))


#: Workload name -> ``seed -> ExperimentConfig`` (``None``: large_n,
#: which bypasses the experiment runner).  See README.md for why each
#: workload is in the set.
WORKLOADS = {
    "table1_original": _table1_config(False),
    "table1_traced": _table1_config(True),
    "geo_outage": _geo_config,
    "large_n": None,
}
#: The traced cell must reproduce the untraced cell's fingerprint.
UNTRACED = {"table1_traced": "table1_original"}


# -- fingerprint, counters, invariants ------------------------------------

def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def experiment_facts(result, env):
    """``(fingerprint, counters, violations)`` of an ExperimentResult."""
    import numpy as np

    system, population = result.system, result.population
    stats = result.stats()
    samples = np.array([(r.started_at, r.finished_at)
                        for r in result.recorder.requests], dtype=float)
    fingerprint = {
        "requests": stats.count,
        "vlrt": stats.vlrt_count,
        "drops": result.dropped_packets(),
        "events": env._eid,
        "millibottlenecks": len(system.millibottleneck_records()),
        "rt_digest": _digest(samples.tobytes()),
    }
    sender = population.sender
    dispatches = sum(b.dispatches for b in system.balancers)
    endpoint_failures = sum(b.endpoint_failures for b in system.balancers)
    caches = [s for s in system.servers if hasattr(s, "effective_hit_ratio")]
    lookups = sum(c.hits + c.misses for c in caches)
    tracer = result.tracer
    counters = {
        "sim.events": env._eid,
        "workload.requests": population.requests_completed,
        "workload.attempts": population.attempts_issued,
        "workload.abandoned": population.requests_abandoned,
        "netmodel.dropped": sender.packets_dropped,
        "netmodel.retransmits": sender.packets_dropped - sender.gave_up,
        "netmodel.wan_retransmits": sum(link.wan_retransmits
                                        for link in system.wan_links),
        "core.dispatches": dispatches,
        "core.endpoint_failures": endpoint_failures,
        "core.spillovers": sum(r.spillovers for r in system.zone_routers),
        "core.pick_yield": (dispatches / (dispatches + endpoint_failures)
                            if dispatches else 0.0),
        "osmodel.millibottlenecks": fingerprint["millibottlenecks"],
        "tiers.completed": sum(s.requests_completed
                               for s in system.servers),
        "tiers.error_responses": sum(s.error_responses
                                     for s in system.servers),
        "tiers.cache_hit_ratio": (sum(c.hits for c in caches) / lookups
                                  if lookups else 0.0),
        "metrics.samples": len(result.recorder) + sum(
            len(series) for series in result.queue_series.values()),
        "tracing.traces": len(tracer.traces) if tracer else 0,
        "tracing.spans": (sum(t.span_count() for t in tracer.traces.values())
                          if tracer else 0),
    }
    return fingerprint, counters, _conservation(result)


def _conservation(result):
    """The packet, web-tier, client and balancer identities of
    tests/test_invariants.py, recomputed from public counters."""
    system, population = result.system, result.population
    violations = []
    sender = population.sender
    accepted = sum(f.socket.accepted for f in system.frontends)
    if sender.packets_sent != accepted + sender.packets_dropped:
        violations.append("packets: sent {} != accepted {} + dropped {}"
                          .format(sender.packets_sent, accepted,
                                  sender.packets_dropped))
    if sender.packets_dropped < sum(f.socket.dropped
                                    for f in system.frontends):
        violations.append("packets: socket drops exceed sender drops")
    for f in system.frontends:
        accounted = (f.requests_completed + f.error_responses
                     + f.shed_responses + f.in_server)
        if f.socket.accepted != accounted:
            violations.append("web tier {}: accepted {} != {}".format(
                f.name, f.socket.accepted, accounted))
    in_flight = (population.attempts_issued - population.requests_completed
                 - population.requests_abandoned)
    if not 0 <= in_flight <= len(population):
        violations.append("clients: {} attempts in flight".format(in_flight))
    for balancer in system.balancers:
        for m in list(balancer.members) + list(balancer.retired_members):
            if m.inflight < 0 or m.dispatched != m.completed + m.inflight:
                violations.append("member {}: dispatched {} completed {} "
                                  "inflight {}".format(m.name, m.dispatched,
                                                       m.completed,
                                                       m.inflight))
    return violations


def large_n_facts(pop, env):
    """``(fingerprint, counters, violations)`` of the aggregated model."""
    state = repr((pop.completions, pop.dispatched, pop.sojourn_sum,
                  pop.sojourn_max, pop.thinking, pop.queues))
    fingerprint = {
        "requests": pop.completions,
        # No per-request samples exist; sojourn_max is in the digest.
        "vlrt": 0,
        "drops": 0,
        "events": env._eid,
        "millibottlenecks": 0,
        "rt_digest": _digest(state.encode()),
    }
    counters = {"sim.events": env._eid,
                "aggregate.completions": pop.completions,
                "aggregate.dispatched": pop.dispatched}
    violations = []
    if pop.thinking + pop.in_system != pop.users:
        violations.append("users: thinking {} + in system {} != {}".format(
            pop.thinking, pop.in_system, pop.users))
    if pop.dispatched != pop.completions + pop.in_system:
        violations.append("jobs: dispatched {} != completed {} + in "
                          "system {}".format(pop.dispatched,
                                             pop.completions,
                                             pop.in_system))
    if sum(pop.queues) != pop.in_system or min(pop.queues) < 0:
        violations.append("queues do not sum to the in-system count")
    return fingerprint, counters, violations


# -- one sample ------------------------------------------------------------

def run_sample(name, seed, profile=False, probe=None, spawned=None):
    """Run one sample in this process; returns the JSON-able record.

    With a running :class:`~hostprobe.HostSpeedProbe`, ``run_s`` and
    ``setup_s`` are scaled to the reference host speed.  ``setup_s``
    runs from ``spawned``, the parent's ``time.perf_counter()`` reading
    (a system-wide monotonic clock) when it started this process, to
    the first simulated event.  Without a probe ``run_s`` is the raw
    host time and there is no ``setup_s``.
    """
    from repro.sim.core import Environment

    class StampedEnvironment(Environment):
        """Records the host time at which the event loop first starts."""

        __slots__ = ("first_event",)

        def run(self, until=None):
            if not hasattr(self, "first_event"):
                self.first_event = time.perf_counter()
            return super().run(until)

    profiler = cProfile.Profile() if profile else None
    if name == "large_n":
        from repro.workload import AggregatedClientPopulation

        env = Environment()
        pop = AggregatedClientPopulation(env, seed=seed, **LARGE_N)
        first_event = time.perf_counter()
        call, root_layer = (lambda: env.run(until=LARGE_N_DURATION)), "sim"
    else:
        from repro.cluster.runner import ExperimentRunner

        env = StampedEnvironment()
        runner = ExperimentRunner(WORKLOADS[name](seed))
        call, root_layer = (lambda: runner.run(env=env)), "cluster"

    start = time.perf_counter()
    if profiler is None:
        outcome = call()
    else:
        outcome = profiler.runcall(call)
    end = time.perf_counter()

    if name == "large_n":
        fingerprint, counters, violations = large_n_facts(pop, env)
    else:
        first_event = env.first_event
        fingerprint, counters, violations = experiment_facts(outcome, env)
    record = {
        "workload": name,
        "seed": seed,
        "raw_run_s": end - start,
        "run_s": end - start if probe is None else probe.scaled(start, end),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "fingerprint": fingerprint,
        "counters": counters,
        "violations": violations,
    }
    if probe is not None:
        record["setup_s"] = probe.scaled(spawned, first_event)
    if profiler is not None:
        from layers import attribute

        self_s, calls, total = attribute(profiler.getstats(), SRC,
                                         root_layer)
        record["profile"] = {"self_s": self_s, "calls": calls,
                             "total_s": total}
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("timed", "profiled"),
                        default="timed")
    parser.add_argument("--spawned", type=float, default=time.perf_counter(),
                        help="perf_counter() reading when the process was "
                        "started (default: now)")
    args = parser.parse_args(argv)
    if args.mode == "profiled":
        record = run_sample(args.workload, args.seed, profile=True)
    else:
        # Started before repro is imported, so set-up is probed too.
        probe = HostSpeedProbe()
        probe.start()
        try:
            record = run_sample(args.workload, args.seed, probe=probe,
                                spawned=args.spawned)
        finally:
            probe.stop()
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    sys.exit(main())
