"""System-wide conservation and accounting invariants.

Every experiment, whatever the policy bundle, fault scenario or remedy
stack, must conserve requests and packets and keep its gauge counters
sane:

* **packet conservation** — every packet the client TCP stack sends is
  either accepted by a web-tier socket or counted as dropped
  (accept-queue overflow or network loss);
* **web-tier conservation** — every accepted request is completed,
  answered with a 503, or still inside the server (accept queue +
  busy workers) at the horizon;
* **client conservation** — attempts issued equal completions plus
  abandonments plus at most one in-flight request per closed-loop
  client;
* **balancer accounting** — per member, ``dispatched == completed +
  inflight`` with ``inflight`` never negative, during the run and
  after it;
* **drain** — with a finite workload and no faults, every in-flight
  counter returns to exactly zero and the identities close with no
  in-server remainder.

These are checked at the horizon for every Table-I policy bundle and
for every fault-zoo scenario crossed with the extreme remedy bundles,
and continuously (50 ms sampling) during a millibottleneck run.
"""

import pytest

from repro.cluster.chaos import (
    FAULT_SCENARIOS,
    ZONE_FAULT_KEYS,
    fault_specs,
)
from repro.cluster.config import ScaleProfile
from repro.cluster.runner import ExperimentConfig, ExperimentRunner
from repro.cluster.topology import build_system
from repro.controlplane import CONTROLPLANE_BUNDLES
from repro.core.remedies import BUNDLES, get_bundle
from repro.netmodel.tcp import GaveUp, TcpSender
from repro.resilience import RESILIENCE_BUNDLES, get_resilience
from repro.sim.core import Environment
from repro.workload.mix import browsing_only_mix
from repro.workload.request import Request
from repro.workload.session import Session

import numpy as np

DURATION = 4.0
PROFILE = ScaleProfile.smoke()


def run_experiment(**overrides):
    config = ExperimentConfig(
        profile=PROFILE, duration=DURATION,
        trace_lb_values=False, trace_dispatches=False, **overrides)
    return ExperimentRunner(config).run()


# -- the invariant assertions (shared by every grid cell) ------------------

def assert_packet_conservation(result):
    population, system = result.population, result.system
    accepted = sum(apache.socket.accepted for apache in system.apaches)
    sent = population.sender.packets_sent
    dropped = population.sender.packets_dropped
    assert sent == accepted + dropped, (
        "packets leaked: sent {} != accepted {} + dropped {}".format(
            sent, accepted, dropped))
    socket_drops = sum(apache.socket.dropped for apache in system.apaches)
    # Network-loss faults drop packets the sockets never see.
    assert dropped >= socket_drops


def assert_web_tier_conservation(result):
    for apache in result.system.apaches:
        accepted = apache.socket.accepted
        # Shed responses (admission / bulkhead / leveling overflow) are
        # fast completions the control plane answered; leveled requests
        # parked in the queue count via in_server.
        accounted = (apache.requests_completed + apache.error_responses
                     + apache.shed_responses + apache.in_server)
        assert accepted == accounted, (
            "{}: accepted {} != completed {} + 503s {} + sheds {} "
            "+ in_server {}".format(
                apache.name, accepted, apache.requests_completed,
                apache.error_responses, apache.shed_responses,
                apache.in_server))
        assert apache.busy_workers >= 0
        assert apache.queue_length >= 0


def assert_client_conservation(result):
    population = result.population
    in_flight = (population.attempts_issued
                 - population.requests_completed
                 - population.requests_abandoned)
    # Closed-loop clients have at most one outstanding attempt each.
    assert 0 <= in_flight <= len(population)


def assert_balancer_accounting(result):
    for balancer in result.system.balancers:
        # Retired members (autoscaler scale-downs) keep their counters;
        # the identities must close over live and retired alike.
        members = (list(balancer.members)
                   + list(getattr(balancer, "retired_members", ())))
        for member in members:
            assert member.inflight >= 0, member.name
            assert member.dispatched == member.completed + member.inflight, (
                "{}: dispatched {} != completed {} + inflight {}".format(
                    member.name, member.dispatched, member.completed,
                    member.inflight))
    for tomcat in result.system.tomcats:
        assert tomcat.busy_threads >= 0
        assert tomcat.queue_length >= 0


def assert_all_invariants(result):
    assert_packet_conservation(result)
    assert_web_tier_conservation(result)
    assert_client_conservation(result)
    assert_balancer_accounting(result)


# -- the grid ---------------------------------------------------------------

@pytest.mark.parametrize("bundle_key", sorted(BUNDLES))
@pytest.mark.parametrize("seed", [42, 20170601])
def test_invariants_hold_for_every_policy_bundle(bundle_key, seed):
    """Table I: all six policy/mechanism bundles conserve requests."""
    result = run_experiment(bundle_key=bundle_key, seed=seed)
    assert_all_invariants(result)
    assert result.stats().count > 0


@pytest.mark.parametrize(
    "fault_key", sorted(set(FAULT_SCENARIOS) - ZONE_FAULT_KEYS))
@pytest.mark.parametrize("remedy_key", ["none", "full"])
def test_invariants_hold_for_every_fault_scenario(fault_key, remedy_key):
    """The fault zoo, bare and fully remedied, conserves requests.

    Zone faults have no target in the classic flat build; their
    invariants run against the geo topology in test_geo.py.
    """
    assert remedy_key in RESILIENCE_BUNDLES
    result = run_experiment(
        bundle_key="current_load_modified", seed=7,
        faults=fault_specs(fault_key, DURATION),
        resilience=get_resilience(remedy_key))
    assert_all_invariants(result)


@pytest.mark.parametrize("remedy_key", sorted(CONTROLPLANE_BUNDLES))
@pytest.mark.parametrize("fault_key", ["none", "packet_loss",
                                       "transient_crash"])
def test_invariants_hold_for_every_controlplane_bundle(fault_key,
                                                       remedy_key):
    """Control-plane remedies — sheds, leveling queues, bulkheads and
    replica churn included — conserve requests under faults.  Shed
    responses enter the web-tier identity; dynamic replicas enter the
    balancer identity via ``retired_members``."""
    result = run_experiment(
        bundle_key="current_load_modified", seed=7,
        faults=fault_specs(fault_key, DURATION),
        controlplane=CONTROLPLANE_BUNDLES[remedy_key])
    assert_all_invariants(result)


def test_invariants_hold_with_aggressive_replica_churn():
    """An autoscaler flapping between watermarks every interval keeps
    every conservation identity intact, including requests in flight
    on replicas that retire under them."""
    from repro.controlplane import AutoscalerConfig, ControlPlaneConfig

    result = run_experiment(
        bundle_key="current_load_modified", seed=7,
        faults=fault_specs("transient_crash", DURATION),
        controlplane=ControlPlaneConfig(autoscaler=AutoscalerConfig(
            interval=0.25, warmup=0.25, cooldown=0.25,
            high_watermark=0.4, low_watermark=0.2, max_replicas=6)))
    assert_all_invariants(result)
    scaler = result.system.autoscalers[0]
    assert scaler.scale_ups + scaler.scale_downs > 0


def test_invariants_hold_continuously_under_millibottlenecks():
    """Gauges and accounting identities, sampled every 50 ms of a run
    that includes flush stalls, drops and retransmissions."""
    from repro.netmodel.tcp import RetransmissionPolicy
    from repro.workload.generator import ClientPopulation

    env = Environment()
    rng = np.random.default_rng(99)
    system = build_system(
        env, PROFILE, bundle=get_bundle("original_total_request"),
        rng=rng, tomcat_millibottlenecks=True,
        apache_millibottlenecks=False)
    population = ClientPopulation(
        env, sockets=[apache.socket for apache in system.apaches],
        total_clients=PROFILE.clients, mix=browsing_only_mix(), rng=rng,
        think_time=PROFILE.think_time,
        retransmission=RetransmissionPolicy(),
        ramp_up=PROFILE.ramp_up)
    violations = []

    def monitor():
        while True:
            yield env.timeout(0.05)
            for balancer in system.balancers:
                for member in balancer.members:
                    if member.inflight < 0:
                        violations.append((env.now, member.name,
                                           "inflight", member.inflight))
                    if member.dispatched != (member.completed
                                             + member.inflight):
                        violations.append((env.now, member.name,
                                           "accounting", member.dispatched))
            for server in system.servers:
                if server.in_server < 0:
                    violations.append((env.now, server.name,
                                       "in_server", server.in_server))
            for apache in system.apaches:
                sent = population.sender.packets_sent
                if sent < apache.socket.accepted:
                    violations.append((env.now, apache.name, "packets",
                                       sent))

    env.process(monitor())
    env.run(until=DURATION)
    assert violations == []
    # The horizon identities hold on the hand-built system too.
    accepted = sum(apache.socket.accepted for apache in system.apaches)
    assert population.sender.packets_sent == (
        accepted + population.sender.packets_dropped)
    for apache in system.apaches:
        assert apache.socket.accepted == (
            apache.requests_completed + apache.error_responses
            + apache.in_server)


def test_drain_returns_every_counter_to_zero():
    """A finite workload against a fault-free system drains to zero:
    in-flight counters, queues and busy counts all return to rest and
    the conservation identities close exactly."""
    env = Environment()
    rng = np.random.default_rng(5)
    system = build_system(
        env, PROFILE, bundle=get_bundle("current_load_modified"),
        rng=rng, tomcat_millibottlenecks=False,
        apache_millibottlenecks=False)
    sender = TcpSender(env)
    mix = browsing_only_mix()
    outcomes = {"completed": 0, "abandoned": 0, "issued": 0}

    def finite_client(client_id, socket, requests):
        session = Session(mix, rng)
        for index in range(requests):
            request = Request(env, client_id * 1000 + index,
                              session.next_interaction(), client_id)
            outcomes["issued"] += 1
            try:
                yield from sender.send(socket, request)
            except GaveUp:
                outcomes["abandoned"] += 1
                continue
            yield request.completion
            outcomes["completed"] += 1
            yield env.timeout(float(rng.exponential(0.02)))

    for client_id in range(12):
        socket = system.apaches[client_id % len(system.apaches)].socket
        env.process(finite_client(client_id, socket, requests=8))
    env.run()  # no horizon: run to natural quiescence

    assert outcomes["issued"] == 12 * 8
    assert outcomes["completed"] + outcomes["abandoned"] == 12 * 8
    # Packet conservation, exact.
    accepted = sum(apache.socket.accepted for apache in system.apaches)
    assert sender.packets_sent == accepted + sender.packets_dropped
    # Every tier drained.
    for apache in system.apaches:
        assert apache.busy_workers == 0, apache.name
        assert apache.queue_length == 0, apache.name
        assert (apache.socket.accepted
                == apache.requests_completed + apache.error_responses)
    for tomcat in system.tomcats:
        assert tomcat.busy_threads == 0, tomcat.name
        assert tomcat.queue_length == 0, tomcat.name
    assert system.mysql.in_server == 0
    # Every balancer member returned to zero in-flight with exact
    # dispatch accounting.
    for balancer in system.balancers:
        for member in balancer.members:
            assert member.inflight == 0, member.name
            assert member.dispatched == member.completed, member.name
    assert (sum(member.completed for balancer in system.balancers
                for member in balancer.members)
            == outcomes["completed"])
