"""The control plane: autoscaling, admission, leveling, bulkheads.

Four layers of coverage:

* **unit** — each mechanism in isolation on a bare environment: token
  bucket arithmetic and modes, leveling offer/overflow/drain under
  both policies, bulkhead partitioning, autoscaler scale decisions
  with warm-up and cooldown;
* **spec** — the declarative surface: JSON round-trips, eager
  validation of unknown keys and nonpositive rates, placement rules
  (admission is frontend-only, autoscalers never on frontends or
  inline boundaries);
* **zero-cost-when-off** — an all-``None`` :class:`ControlPlaneConfig`
  leaves the event trace byte-identical to the seed system;
* **acceptance** — the headline chaos cells: the fastest plausible
  reactive autoscaler cannot catch a sub-second millibottleneck,
  while admission + leveling cut %VLRT below 1% on the same cell
  without touching the balancer policy.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from repro.cluster.chaos import fault_specs
from repro.cluster.config import ScaleProfile
from repro.cluster.runner import ExperimentConfig, ExperimentRunner
from repro.cluster.spec import BoundarySpec, TierSpec, TopologySpec
from repro.cluster.topology import (
    build_from_spec,
    replica_factory_for,
    retire_replica,
)
from repro.controlplane import (
    CONTROLPLANE_BUNDLES,
    AdmissionConfig,
    AutoscalerConfig,
    Bulkhead,
    BulkheadConfig,
    ControlPlaneConfig,
    LevelingConfig,
    LevelingQueue,
    TokenBucketAdmission,
    get_controlplane,
)
from repro.errors import ConfigurationError
from repro.sim.core import Environment
from repro.workload.interactions import INTERACTIONS
from repro.workload.request import Request


def make_request(env, request_id=1, write=False):
    name = next(name for name, inter in INTERACTIONS.items()
                if inter.is_write == write)
    return Request(env, request_id, INTERACTIONS[name], client_id=0)


def drive(env, generator):
    """Run a process generator to completion, returning its value."""
    outcome = {}

    def runner():
        outcome["value"] = yield from generator
    env.process(runner())
    env.run()
    return outcome["value"]


# -- config validation ------------------------------------------------------

class TestConfigValidation:
    def test_admission_rejects_nonpositive_rates(self):
        with pytest.raises(ConfigurationError):
            AdmissionConfig(capacity=0.0)
        with pytest.raises(ConfigurationError):
            AdmissionConfig(refill_rate=-1.0)
        with pytest.raises(ConfigurationError):
            AdmissionConfig(lease=0.0)
        with pytest.raises(ConfigurationError):
            AdmissionConfig(lease=30.0, capacity=20.0)
        with pytest.raises(ConfigurationError):
            AdmissionConfig(mode="drop")
        with pytest.raises(ConfigurationError):
            AdmissionConfig(max_wait=0.0)

    def test_leveling_rejects_bad_values(self):
        with pytest.raises(ConfigurationError):
            LevelingConfig(capacity=0)
        with pytest.raises(ConfigurationError):
            LevelingConfig(drain_concurrency=0)
        with pytest.raises(ConfigurationError):
            LevelingConfig(overflow="explode")

    def test_bulkhead_rejects_bad_values(self):
        with pytest.raises(ConfigurationError):
            BulkheadConfig(read_slots=0)
        with pytest.raises(ConfigurationError):
            BulkheadConfig(write_slots=0)
        with pytest.raises(ConfigurationError):
            BulkheadConfig(mode="queue")

    def test_autoscaler_rejects_bad_values(self):
        with pytest.raises(ConfigurationError):
            AutoscalerConfig(interval=0.0)
        with pytest.raises(ConfigurationError):
            AutoscalerConfig(warmup=-1.0)
        with pytest.raises(ConfigurationError):
            AutoscalerConfig(min_replicas=0)
        with pytest.raises(ConfigurationError):
            AutoscalerConfig(min_replicas=4, max_replicas=2)
        with pytest.raises(ConfigurationError):
            AutoscalerConfig(high_watermark=0.5, low_watermark=1.0)
        with pytest.raises(ConfigurationError):
            AutoscalerConfig(metric="vibes")

    def test_bundles_registry(self):
        for key, bundle in CONTROLPLANE_BUNDLES.items():
            assert bundle.enabled, key
            assert get_controlplane(key) is bundle
        with pytest.raises(ConfigurationError) as err:
            get_controlplane("gremlins")
        assert "autoscale" in str(err.value)
        assert not ControlPlaneConfig().enabled


# -- token-bucket admission -------------------------------------------------

class TestTokenBucketAdmission:
    def test_shed_mode_admits_until_empty_then_sheds(self):
        env = Environment()
        bucket = TokenBucketAdmission(
            env, AdmissionConfig(capacity=2.0, refill_rate=1.0))
        outcomes = [drive(env, bucket.admit(make_request(env, i)))
                    for i in range(4)]
        assert outcomes == [True, True, False, False]
        assert bucket.admitted == 2 and bucket.shed == 2
        assert [r.outcome for r in bucket.records] == [
            "admitted", "admitted", "shed", "shed"]

    def test_refill_is_lazy_and_capped(self):
        env = Environment()
        bucket = TokenBucketAdmission(
            env, AdmissionConfig(capacity=2.0, refill_rate=4.0))
        drive(env, bucket.admit(make_request(env, 1)))
        drive(env, bucket.admit(make_request(env, 2)))
        assert bucket.tokens == 0.0
        env.run(until=env.now + 0.25)
        assert bucket.tokens == pytest.approx(1.0)
        env.run(until=env.now + 100.0)
        assert bucket.tokens == pytest.approx(2.0)  # capped at capacity

    def test_shed_mode_schedules_zero_events(self):
        env = Environment()
        events = []
        env.trace = lambda when, event: events.append(event)
        bucket = TokenBucketAdmission(
            env, AdmissionConfig(capacity=1.0, refill_rate=1.0))
        for i in range(3):
            gen = bucket.admit(make_request(env, i))
            with pytest.raises(StopIteration):
                next(gen)
        assert events == []

    def test_queue_mode_waits_out_the_deficit(self):
        env = Environment()
        bucket = TokenBucketAdmission(
            env, AdmissionConfig(capacity=1.0, refill_rate=2.0,
                                 mode="queue", max_wait=1.0))
        assert drive(env, bucket.admit(make_request(env, 1))) is True
        start = env.now
        assert drive(env, bucket.admit(make_request(env, 2))) is True
        assert env.now - start == pytest.approx(0.5)  # 1 token @ 2/s
        assert bucket.queued == 1

    def test_queue_mode_sheds_past_max_wait(self):
        env = Environment()
        bucket = TokenBucketAdmission(
            env, AdmissionConfig(capacity=1.0, refill_rate=1.0,
                                 mode="queue", max_wait=0.25))
        drive(env, bucket.admit(make_request(env, 1)))
        assert drive(env, bucket.admit(make_request(env, 2))) is False
        assert bucket.shed == 1

    def test_record_limit_caps_the_audit_log(self):
        env = Environment()
        bucket = TokenBucketAdmission(
            env, AdmissionConfig(capacity=100.0, refill_rate=1.0,
                                 record_limit=3))
        for i in range(10):
            drive(env, bucket.admit(make_request(env, i)))
        assert len(bucket.records) == 3
        assert bucket.admitted == 10


# -- leveling queue ---------------------------------------------------------

class TestLevelingQueue:
    def _queue(self, env, capacity=2, overflow="reject", drain_time=1.0):
        drained, sheds = [], []

        def drain(request):
            yield env.timeout(drain_time)
            drained.append(request)

        queue = LevelingQueue(
            env, LevelingConfig(capacity=capacity,
                                drain_concurrency=1,
                                overflow=overflow),
            drain=drain, on_shed=sheds.append)
        return queue, drained, sheds

    def test_offer_accepts_up_to_capacity_then_rejects(self):
        env = Environment()
        queue, drained, sheds = self._queue(env, capacity=2)
        requests = [make_request(env, i) for i in range(4)]
        # The drain process has not started yet (the env has not run),
        # so every offer parks in the FIFO: two fit, the rest bounce.
        assert [queue.offer(r) for r in requests] == [
            True, True, False, False]
        assert queue.rejected == 2 and queue.peak_length == 2
        env.run()
        assert [r.request_id for r in drained] == [0, 1]
        assert queue.drained == 2 and sheds == []

    def test_drop_oldest_evicts_the_head(self):
        env = Environment()
        queue, drained, sheds = self._queue(env, capacity=2,
                                            overflow="drop_oldest")
        requests = [make_request(env, i) for i in range(4)]
        assert all(queue.offer(r) for r in requests)
        assert queue.evicted == 2
        assert [r.request_id for r in sheds] == [0, 1]
        env.run()
        assert [r.request_id for r in drained] == [2, 3]
        assert queue.sheds == 2

    def test_drain_concurrency_paces_the_queue(self):
        env = Environment()
        queue, drained, _ = self._queue(env, capacity=8, drain_time=1.0)
        for i in range(3):
            assert queue.offer(make_request(env, i))
        env.run(until=1.5)
        assert len(drained) == 1  # one drain process, 1 s per request
        env.run()
        assert len(drained) == 3

    def test_idle_queue_costs_one_initialize_per_drain(self):
        env = Environment()
        events = []
        env.trace = lambda when, event: events.append(event)
        self._queue(env, capacity=2)
        env.run()
        # Booting the single drain process costs exactly one Initialize;
        # after that the parked getter never triggers without an offer.
        assert [type(e).__name__ for e in events] == ["Initialize"]


# -- bulkhead ---------------------------------------------------------------

class TestBulkhead:
    def test_partitions_by_interaction_class(self):
        env = Environment()
        bulkhead = Bulkhead(env, BulkheadConfig(read_slots=1,
                                                write_slots=1))
        read = drive(env, bulkhead.acquire(make_request(env, 1)))
        write = drive(env, bulkhead.acquire(make_request(env, 2,
                                                         write=True)))
        assert read is not None and write is not None
        assert bulkhead.admitted == {"read": 1, "write": 1}

    def test_shed_mode_isolates_the_partitions(self):
        env = Environment()
        bulkhead = Bulkhead(env, BulkheadConfig(read_slots=1,
                                                write_slots=1))
        held = drive(env, bulkhead.acquire(make_request(env, 1)))
        assert drive(env, bulkhead.acquire(make_request(env, 2))) is None
        # A full read partition must not shed writes.
        assert drive(env, bulkhead.acquire(
            make_request(env, 3, write=True))) is not None
        assert bulkhead.shed == {"read": 1, "write": 0}
        held.cancel_or_release()
        assert drive(env, bulkhead.acquire(make_request(env, 4))) \
            is not None

    def test_wait_mode_queues_for_a_slot(self):
        env = Environment()
        bulkhead = Bulkhead(env, BulkheadConfig(read_slots=1,
                                                write_slots=1,
                                                mode="wait"))
        held = drive(env, bulkhead.acquire(make_request(env, 1)))

        def releaser():
            yield env.timeout(1.0)
            held.cancel_or_release()
        env.process(releaser())
        start = env.now
        slot = drive(env, bulkhead.acquire(make_request(env, 2)))
        assert slot is not None
        assert env.now - start == pytest.approx(1.0)


# -- declarative spec surface ----------------------------------------------

def controlplane_spec():
    spec = TopologySpec.classic()
    tiers = list(spec.tiers)
    tiers[0] = replace(tiers[0], admission=AdmissionConfig())
    tiers[1] = replace(tiers[1], autoscaler=AutoscalerConfig(
        min_replicas=1, max_replicas=8))
    tiers[2] = replace(tiers[2], bulkhead=BulkheadConfig())
    boundaries = list(spec.boundaries)
    boundaries[0] = replace(boundaries[0], leveling=LevelingConfig())
    return replace(spec, tiers=tuple(tiers),
                   boundaries=tuple(boundaries))


class TestSpecSurface:
    def test_json_round_trip(self):
        spec = controlplane_spec()
        assert TopologySpec.from_dict(spec.to_dict()) == spec

    def test_to_dict_omits_unconfigured_mechanisms(self):
        data = TopologySpec.classic().to_dict()
        for tier in data["tiers"]:
            assert "admission" not in tier
            assert "autoscaler" not in tier
            assert "bulkhead" not in tier
        for boundary in data["boundaries"]:
            assert "leveling" not in boundary

    def test_unknown_mechanism_keys_rejected_eagerly(self):
        data = controlplane_spec().to_dict()
        data["tiers"][0]["admission"]["burstiness"] = 2.0
        with pytest.raises(ConfigurationError) as err:
            TopologySpec.from_dict(data)
        assert "burstiness" in str(err.value)

    def test_nonpositive_rates_rejected_eagerly(self):
        data = controlplane_spec().to_dict()
        data["tiers"][0]["admission"]["refill_rate"] = -5.0
        with pytest.raises(ConfigurationError):
            TopologySpec.from_dict(data)

    def test_admission_is_frontend_only(self):
        with pytest.raises(ConfigurationError):
            TierSpec(name="tomcat", service="worker", replicas=2,
                     capacity=8, admission=AdmissionConfig())

    def test_autoscaler_rejected_on_frontends(self):
        with pytest.raises(ConfigurationError):
            TierSpec(name="apache", service="frontend", replicas=2,
                     capacity=8, autoscaler=AutoscalerConfig())

    def test_autoscaler_bounds_must_cover_initial_replicas(self):
        with pytest.raises(ConfigurationError):
            TierSpec(name="tomcat", service="worker", replicas=9,
                     capacity=8, autoscaler=AutoscalerConfig(
                         min_replicas=1, max_replicas=8))

    def test_inline_boundary_takes_no_leveling(self):
        with pytest.raises(ConfigurationError):
            BoundarySpec(mode="inline", leveling=LevelingConfig())

    def test_describe_names_the_mechanisms(self):
        text = controlplane_spec().describe()
        assert "admission" in text
        assert "autoscale[1..8]" in text
        assert "bulkhead" in text
        assert "leveling" in text


# -- replica churn and the autoscaler --------------------------------------

def build_scaled_system(env, autoscaler=None, replicas=2):
    spec = TopologySpec.classic()
    tiers = list(spec.tiers)
    tiers[1] = replace(tiers[1], replicas=replicas,
                       autoscaler=autoscaler)
    spec = replace(spec, tiers=tuple(tiers))
    from repro.core.remedies import get_bundle
    return build_from_spec(env, spec, ScaleProfile.smoke(),
                           default_bundle=get_bundle("current_load"),
                           rng=np.random.default_rng(7))


class TestReplicaChurn:
    def test_factory_grows_the_tier_and_joins_balancers(self):
        env = Environment()
        system = build_scaled_system(env)
        factory = replica_factory_for(system, "tomcat")
        before = len(system.tiers["tomcat"])
        new = factory(before)
        assert len(system.tiers["tomcat"]) == before + 1
        for balancer in system.balancers:
            names = [m.server.name for m in balancer.members]
            assert new.name in names

    def test_retire_removes_from_tier_and_balancers(self):
        env = Environment()
        system = build_scaled_system(env)
        victim = system.tiers["tomcat"][-1]
        retire_replica(system, "tomcat", victim)
        assert victim not in system.tiers["tomcat"]
        assert victim in system.retired["tomcat"]
        for balancer in system.balancers:
            assert victim.name not in [m.server.name
                                       for m in balancer.members]
            assert victim.name in [m.server.name
                                   for m in balancer.retired_members]

    def test_last_replica_cannot_retire(self):
        env = Environment()
        system = build_scaled_system(env, replicas=1)
        with pytest.raises(ConfigurationError):
            retire_replica(system, "tomcat",
                           system.tiers["tomcat"][0])

    def test_frontends_cannot_scale(self):
        env = Environment()
        system = build_scaled_system(env)
        with pytest.raises(ConfigurationError):
            replica_factory_for(system, "apache")


class TestAutoscaler:
    def _run_with_autoscaler(self, config, duration=8.0, faults=(),
                             clients=None):
        profile = ScaleProfile.smoke()
        if clients is not None:
            profile = replace(profile, clients=clients)
        experiment = ExperimentConfig(
            profile=profile, duration=duration, seed=11,
            trace_lb_values=False, trace_dispatches=False,
            faults=faults,
            controlplane=ControlPlaneConfig(autoscaler=config))
        return ExperimentRunner(experiment).run()

    def test_scales_up_under_sustained_overload(self):
        result = self._run_with_autoscaler(
            AutoscalerConfig(interval=0.25, warmup=0.5, cooldown=0.25,
                             high_watermark=0.4, low_watermark=0.01,
                             min_replicas=2, max_replicas=6),
            clients=400)
        scaler = result.system.autoscalers[0]
        assert scaler.scale_ups > 0
        assert len(result.system.tiers["tomcat"]) > 2
        # Warm-up lag: the i-th completion follows the i-th start by at
        # least the warm-up (provisions complete in FIFO order).
        starts = [e.at for e in scaler.events if e.action == "scale_up"]
        completes = [e.at for e in scaler.events
                     if e.action == "up_complete"]
        assert completes
        for start, complete in zip(starts, completes):
            assert complete >= start + 0.5 - 1e-9

    def test_scales_down_when_idle(self):
        result = self._run_with_autoscaler(
            AutoscalerConfig(interval=0.5, warmup=0.5, cooldown=0.5,
                             low_watermark=10.0, high_watermark=50.0,
                             min_replicas=1),
            clients=10)
        scaler = result.system.autoscalers[0]
        assert scaler.scale_downs > 0
        assert len(result.system.tiers["tomcat"]) \
            + len(result.system.retired.get("tomcat", [])) > \
            len(result.system.tiers["tomcat"])

    def test_cooldown_spaces_scale_actions(self):
        result = self._run_with_autoscaler(
            AutoscalerConfig(interval=0.25, warmup=0.25, cooldown=2.0,
                             high_watermark=0.4, low_watermark=0.01,
                             max_replicas=8),
            clients=400)
        actions = [e.at for e in result.system.autoscalers[0].events
                   if e.action in ("scale_up", "scale_down")]
        assert len(actions) > 1
        gaps = np.diff(actions)
        assert (gaps >= 2.0 - 1e-9).all()

    def test_scale_up_during_active_crash_window(self):
        """A replica provisioned while another is crashed joins cold
        and the run still conserves every request."""
        from repro.cluster.faults import CrashFault
        result = self._run_with_autoscaler(
            AutoscalerConfig(interval=0.5, warmup=0.5, cooldown=0.5,
                             high_watermark=0.4, low_watermark=0.01,
                             min_replicas=2, max_replicas=6),
            duration=8.0, clients=300,
            faults=(CrashFault("tomcat1", at=2.0, duration=3.0),))
        scaler = result.system.autoscalers[0]
        crash_ups = [e for e in scaler.events
                     if e.action == "up_complete" and 2.0 <= e.at <= 5.0]
        assert crash_ups, "no replica landed inside the crash window"
        assert_dynamic_conservation(result)

    def test_scale_down_races_in_flight_requests(self):
        """Retiring a replica mid-run must not lose or duplicate the
        requests it still carries."""
        result = self._run_with_autoscaler(
            AutoscalerConfig(interval=0.25, warmup=0.25, cooldown=0.25,
                             low_watermark=10.0, high_watermark=50.0,
                             min_replicas=1),
            duration=8.0, clients=120)
        scaler = result.system.autoscalers[0]
        assert scaler.scale_downs > 0
        assert_dynamic_conservation(result)


def assert_dynamic_conservation(result):
    """The invariant identities, extended over retired replicas."""
    system = result.system
    for balancer in system.balancers:
        members = list(balancer.members) + list(balancer.retired_members)
        for member in members:
            assert member.inflight >= 0, member.name
            assert member.dispatched == member.completed \
                + member.inflight, member.name
    population = result.population
    in_flight = (population.attempts_issued
                 - population.requests_completed
                 - population.requests_abandoned)
    assert 0 <= in_flight <= len(population)


# -- zero-cost-when-off -----------------------------------------------------

def traced_run(seed, controlplane=None):
    env = Environment()
    records = []
    env.trace = lambda when, event: records.append(
        (when, type(event).__name__))
    profile = replace(ScaleProfile.smoke(), clients=120,
                      flush_threshold_bytes=32e3)
    config = ExperimentConfig(
        bundle_key="current_load", profile=profile, duration=4.0,
        seed=seed, trace_lb_values=False, trace_dispatches=False,
        controlplane=controlplane)
    ExperimentRunner(config).run(env=env)
    payload = "\n".join("{!r} {}".format(when, name)
                        for when, name in records)
    return hashlib.sha256(payload.encode()).hexdigest()


class TestZeroCostWhenOff:
    @pytest.mark.parametrize("seed", [99, 20170601])
    def test_all_none_config_is_byte_identical(self, seed):
        assert traced_run(seed) \
            == traced_run(seed, controlplane=ControlPlaneConfig())

    @pytest.mark.parametrize("seed", [99])
    def test_enabled_config_changes_the_trace(self, seed):
        assert traced_run(seed) != traced_run(
            seed, controlplane=CONTROLPLANE_BUNDLES["admission+leveling"])


# -- acceptance: the headline chaos cells ----------------------------------

class TestAcceptance:
    @pytest.fixture(scope="class")
    def headline(self):
        """One millibottleneck-heavy packet-loss cell, three remedies."""
        from repro.parallel import run_experiments

        profile = replace(ScaleProfile(), tomcat_disk_bandwidth=4e6)
        base = dict(bundle_key="original_total_request",
                    profile=profile, duration=12.0, seed=42,
                    trace_lb_values=False, trace_dispatches=False,
                    faults=fault_specs("packet_loss", 12.0))
        configs = [
            ExperimentConfig(**base),
            ExperimentConfig(
                controlplane=CONTROLPLANE_BUNDLES["autoscale_fast"],
                **base),
            ExperimentConfig(
                controlplane=CONTROLPLANE_BUNDLES["admission+leveling"],
                **base),
        ]
        none, autoscaled, leveled = run_experiments(configs, workers=3)
        return none, autoscaled, leveled

    def test_baseline_suffers_vlrts(self, headline):
        none, _, _ = headline
        assert 100.0 * none.stats().vlrt_fraction > 5.0
        assert none.dropped_packets() > 0

    def test_fastest_autoscaler_misses_the_millibottleneck(self, headline):
        """250 ms sampling + 500 ms boot is far faster than any real
        provisioning loop, and it still cannot catch a sub-second
        flush stall: %VLRT stays well above the 1% bar."""
        _, autoscaled, _ = headline
        assert 100.0 * autoscaled.stats().vlrt_fraction > 1.0
        assert autoscaled.dropped_packets() > 0

    def test_admission_plus_leveling_tames_vlrts(self, headline):
        """The same cell with a token bucket and a bounded leveling
        queue: workers return to the accept loop during the stall, the
        accept queue never overflows, and the retransmission-driven
        VLRT tail disappears."""
        none, _, leveled = headline
        assert 100.0 * leveled.stats().vlrt_fraction < 1.0
        assert leveled.dropped_packets() == 0
        assert leveled.sheds() > 0
        # The remedy must not buy its tail by collapsing throughput.
        assert leveled.goodput() > none.goodput()
