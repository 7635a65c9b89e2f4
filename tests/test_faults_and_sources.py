"""Tests for fault injection and alternative millibottleneck sources."""

import numpy as np
import pytest

from repro.cluster import (
    CorrelatedCrashFault,
    CrashFault,
    FaultInjector,
    LinkLatencyFault,
    PacketLossFault,
    RecurringFault,
    ScaleProfile,
    SlowFault,
    build_system,
)
from repro.core import MemberState, StateConfig, get_bundle
from repro.core.balancer import BalancerConfig
from repro.errors import ConfigurationError
from repro.osmodel import (
    DvfsSource,
    GarbageCollectionSource,
    Host,
    TransientStallInjector,
)
from repro.sim import Environment
from repro.netmodel import ListenSocket, RetransmissionPolicy
from repro.workload import ClientPopulation, read_write_mix


class TestTransientStallInjector:
    def test_injects_and_records_ground_truth(self):
        env = Environment()
        host = Host(env, "h1", cores=2)
        injector = TransientStallInjector(
            host, interval=lambda: 1.0, duration=lambda: 0.1, label="x")
        env.run(until=3.5)
        assert injector.stalls_injected == 3
        records = host.millibottlenecks
        assert [round(r.started_at, 1) for r in records] == [1.0, 2.1, 3.2]
        assert all(r.duration == pytest.approx(0.1) for r in records)

    def test_stall_blocks_foreground(self):
        env = Environment()
        host = Host(env, "h1", cores=1)
        TransientStallInjector(host, interval=lambda: 0.5,
                               duration=lambda: 0.2)
        finished = []

        def work(env):
            yield env.timeout(0.55)  # mid-stall
            yield from host.execute(0.001)
            finished.append(env.now)

        env.process(work(env))
        env.run(until=1.0)
        assert finished[0] == pytest.approx(0.701, abs=1e-3)


class TestGcAndDvfsSources:
    def test_gc_pauses_have_plausible_durations(self):
        env = Environment()
        host = Host(env, "jvm", cores=4)
        GarbageCollectionSource(host, np.random.default_rng(0),
                                period=0.5, mean_pause=0.15)
        env.run(until=20.0)
        durations = [r.duration for r in host.millibottlenecks]
        assert len(durations) > 10
        assert 0.05 < float(np.mean(durations)) < 0.4
        # Millibottleneck range: tens to hundreds of milliseconds.
        assert all(0.01 < d < 1.5 for d in durations)

    def test_dvfs_transitions_are_short_and_fixed(self):
        env = Environment()
        host = Host(env, "cpu", cores=4)
        DvfsSource(host, np.random.default_rng(1), period=0.5,
                   transition=0.05)
        env.run(until=10.0)
        assert len(host.millibottlenecks) > 5
        assert all(r.duration == pytest.approx(0.05)
                   for r in host.millibottlenecks)

    def test_validation(self):
        env = Environment()
        host = Host(env, "h", cores=1)
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigurationError):
            GarbageCollectionSource(host, rng, period=0)
        with pytest.raises(ConfigurationError):
            DvfsSource(host, rng, transition=0)


class TestFaultInjector:
    def make_system(self, env, error_recovery=2.0):
        profile = ScaleProfile.smoke()
        system = build_system(
            env, profile, bundle=get_bundle("current_load_modified"),
            rng=np.random.default_rng(0),
            tomcat_millibottlenecks=False,
            balancer_config=BalancerConfig(
                pool_size=profile.connection_pool_size,
                trace_lb_values=False, trace_dispatches=True),
            state_config=StateConfig(busy_recheck=0.05,
                                     max_busy_retries=4,
                                     error_recovery=error_recovery),
        )
        population = ClientPopulation(
            env, [a.socket for a in system.apaches],
            total_clients=profile.clients, mix=read_write_mix(),
            rng=np.random.default_rng(0), think_time=profile.think_time,
            retransmission=RetransmissionPolicy())
        return system, population

    def test_crash_escalates_to_error_and_routes_around(self):
        env = Environment()
        system, population = self.make_system(env)
        injector = FaultInjector(env)
        injector.crash_at(system.tomcats[0], at=3.0)
        env.run(until=8.0)
        # Every balancer eventually ejects the dead member...
        for balancer in system.balancers:
            assert balancer.members[0].state is MemberState.ERROR
        # ...and the system keeps serving on the survivor.
        for balancer in system.balancers:
            counts = balancer.distribution_between(4.0, 8.0)
            assert counts["tomcat1"] == 0
            assert counts["tomcat2"] > 0
        assert injector.records[0].server == "tomcat1"
        assert injector.records[0].recovered_at is None

    def test_recovery_restores_service(self):
        env = Environment()
        system, population = self.make_system(env, error_recovery=1.0)
        injector = FaultInjector(env)
        injector.crash_at(system.tomcats[0], at=2.0, duration=2.0)
        env.run(until=10.0)
        record = injector.records[0]
        assert record.recovered_at == pytest.approx(4.0)
        # After recovery plus the error window, traffic returns.
        for balancer in system.balancers:
            counts = balancer.distribution_between(6.0, 10.0)
            assert counts["tomcat1"] > 0

    def test_crash_differs_from_millibottleneck(self):
        """The conservative remedy's rationale: both look identical at
        first probe, but only the crash should reach Error."""
        env = Environment()
        profile = ScaleProfile.smoke()
        system = build_system(
            env, profile, bundle=get_bundle("current_load_modified"),
            rng=np.random.default_rng(0),
            tomcat_millibottlenecks=True,  # flushing on
            state_config=StateConfig(busy_recheck=0.05,
                                     max_busy_retries=4,
                                     error_recovery=60.0),
        )
        population = ClientPopulation(
            env, [a.socket for a in system.apaches],
            total_clients=profile.clients, mix=read_write_mix(),
            rng=np.random.default_rng(0), think_time=profile.think_time)
        FaultInjector(env).crash_at(system.tomcats[1], at=3.0)
        env.run(until=10.0)
        assert len(system.millibottleneck_records()) > 0
        for balancer in system.balancers:
            # tomcat2 crashed: Error.  tomcat1 only millibottlenecked:
            # never Error.
            assert balancer.members[1].state is MemberState.ERROR
            assert balancer.members[0].state is not MemberState.ERROR

    def test_validation(self):
        env = Environment(initial_time=5.0)
        injector = FaultInjector(env)
        host = Host(env, "h")
        from repro.tiers import MySqlServer
        server = MySqlServer(env, "m", host)
        with pytest.raises(ConfigurationError):
            injector.crash_at(server, at=1.0)
        with pytest.raises(ConfigurationError):
            injector.crash_at(server, at=6.0, duration=0)

    def test_crash_recover_flags(self):
        env = Environment()
        host = Host(env, "h")
        from repro.tiers import MySqlServer
        server = MySqlServer(env, "m", host)
        assert not server.crashed
        assert server.responsive
        server.crash()
        assert server.crashed
        assert not server.responsive
        server.recover()
        assert server.responsive


class TestFaultZoo:
    def make_server(self, env):
        from repro.tiers import MySqlServer
        return MySqlServer(env, "m", Host(env, "h"))

    def test_crash_record_appended_at_crash_time(self):
        env = Environment()
        server = self.make_server(env)
        injector = FaultInjector(env)
        injector.crash_at(server, at=1.0, duration=2.0)
        env.run(until=0.5)
        assert injector.records == []
        env.run(until=2.0)  # mid-crash
        assert len(injector.records) == 1
        record = injector.records[0]
        assert record.crashed_at == pytest.approx(1.0)
        assert record.recovered_at is None
        env.run(until=4.0)
        assert record.recovered_at == pytest.approx(3.0)

    def test_overlapping_crash_windows_rejected(self):
        env = Environment()
        server = self.make_server(env)
        injector = FaultInjector(env)
        injector.crash_at(server, at=1.0, duration=2.0)
        with pytest.raises(ConfigurationError):
            injector.crash_at(server, at=2.0, duration=1.0)
        # A permanent crash overlaps everything after it.
        with pytest.raises(ConfigurationError):
            injector.crash_at(server, at=0.5)
        # Disjoint windows are fine; other servers are independent.
        injector.crash_at(server, at=4.0, duration=0.5)
        other = FaultInjector(env)
        other.crash_at(self.make_server(env), at=1.5, duration=1.0)

    def test_permanent_overlap_rejected_after_permanent(self):
        env = Environment()
        server = self.make_server(env)
        injector = FaultInjector(env)
        injector.crash_at(server, at=3.0)
        with pytest.raises(ConfigurationError):
            injector.crash_at(server, at=10.0, duration=1.0)

    def test_slow_fault_stretches_cpu_demand(self):
        env = Environment()
        server = self.make_server(env)
        injector = FaultInjector(env)
        injector.slow_at(server, at=1.0, duration=2.0, factor=3.0)
        env.run(until=2.0)
        assert server.host.slowdown == pytest.approx(3.0)
        env.run(until=4.0)
        assert server.host.slowdown == pytest.approx(1.0)
        record = injector.slow_records[0]
        assert record.server == "m"
        assert record.factor == 3.0
        assert record.started_at == pytest.approx(1.0)
        assert record.ended_at == pytest.approx(3.0)

    def test_slow_fault_validation(self):
        env = Environment()
        server = self.make_server(env)
        injector = FaultInjector(env)
        with pytest.raises(ConfigurationError):
            injector.slow_at(server, at=1.0, duration=1.0, factor=1.0)
        with pytest.raises(ConfigurationError):
            injector.slow_at(server, at=1.0, duration=0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_windows_rejected(self, bad):
        env = Environment()
        server = self.make_server(env)
        socket = ListenSocket(env, backlog=4, name="s")
        injector = FaultInjector(env)
        windows = [
            lambda: injector.crash_at(server, at=bad),
            lambda: injector.crash_at(server, at=1.0, duration=bad),
            lambda: injector.slow_at(server, at=1.0, duration=bad),
            lambda: injector.slow_at(server, at=bad, duration=1.0),
            lambda: injector.impair_socket_at(socket, at=1.0, duration=bad),
            lambda: injector.impair_socket_at(socket, at=1.0, duration=1.0,
                                              extra_latency=bad),
            lambda: injector.recurring(server, duration=bad),
            lambda: injector.recurring(server, mean_interval=bad),
        ]
        for schedule in windows:
            with pytest.raises(ConfigurationError, match="finite"):
                schedule()
        # Nothing was scheduled: the run is still empty.
        assert env.peek() == float("inf")

    def make_full_system(self, env):
        profile = ScaleProfile.smoke()
        return build_system(
            env, profile, bundle=get_bundle("current_load_modified"),
            rng=np.random.default_rng(0),
            tomcat_millibottlenecks=False)

    def test_packet_loss_window_installs_and_removes_impairment(self):
        env = Environment()
        system = self.make_full_system(env)
        injector = FaultInjector(env)
        injector.inject(PacketLossFault(at=1.0, duration=2.0, loss=0.5),
                        system)
        env.run(until=2.0)
        for apache in system.apaches:
            assert apache.socket.impairment is not None
            assert apache.socket.impairment.loss == 0.5
        env.run(until=4.0)
        for apache in system.apaches:
            assert apache.socket.impairment is None
        # One record per impaired socket, window recorded.
        assert len(injector.net_records) == len(system.apaches)
        assert all(r.kind == "loss" and r.ended_at == pytest.approx(3.0)
                   for r in injector.net_records)

    def test_packet_loss_targets_one_apache(self):
        env = Environment()
        system = self.make_full_system(env)
        injector = FaultInjector(env)
        injector.inject(PacketLossFault(at=1.0, duration=1.0,
                                        apache="apache1"), system)
        env.run(until=1.5)
        impaired = [a.name for a in system.apaches
                    if a.socket.impairment is not None]
        assert impaired == ["apache1"]
        with pytest.raises(ConfigurationError):
            injector.inject(PacketLossFault(at=2.0, duration=1.0,
                                            apache="nope"), system)

    def test_link_latency_window(self):
        env = Environment()
        system = self.make_full_system(env)
        injector = FaultInjector(env)
        members = [b.member_named("tomcat1") for b in system.balancers]
        base = [m.link.latency for m in members]
        injector.inject(
            LinkLatencyFault("tomcat1", at=1.0, duration=2.0, extra=0.01),
            system)
        env.run(until=2.0)
        for member, before in zip(members, base):
            assert member.link.latency == pytest.approx(before + 0.01)
        env.run(until=4.0)
        for member, before in zip(members, base):
            assert member.link.latency == pytest.approx(before)
        # One record per balancer link toward the target.
        assert len(injector.net_records) == len(system.balancers)
        assert all(r.kind == "latency" for r in injector.net_records)

    def test_correlated_crash_is_seed_deterministic(self):
        def crash_times(seed):
            env = Environment()
            system = self.make_full_system(env)
            injector = FaultInjector(env,
                                     rng=np.random.default_rng(seed))
            injector.inject(
                CorrelatedCrashFault(("tomcat1", "tomcat2"), at=1.0,
                                     duration=1.0, jitter=0.3), system)
            env.run(until=3.0)
            return sorted((r.server, r.crashed_at)
                          for r in injector.records)

        first, second = crash_times(7), crash_times(7)
        assert first == second
        assert len(first) == 2
        for _, at in first:
            assert 1.0 <= at <= 1.3
        assert crash_times(8) != first

    def test_recurring_slow_produces_episodes(self):
        env = Environment()
        server = self.make_server(env)
        injector = FaultInjector(env, rng=np.random.default_rng(3))
        injector.inject(
            RecurringFault("m", kind="slow", mean_interval=1.0,
                           duration=0.2, factor=2.0), server_system(server))
        env.run(until=10.0)
        assert len(injector.slow_records) >= 3
        # Episodes are sequential: each ends before the next starts.
        for earlier, later in zip(injector.slow_records,
                                  injector.slow_records[1:]):
            assert earlier.ended_at is not None
            assert earlier.ended_at <= later.started_at
        assert server.host.slowdown == pytest.approx(1.0)

    def test_recurring_until_bounds_episodes(self):
        env = Environment()
        server = self.make_server(env)
        injector = FaultInjector(env, rng=np.random.default_rng(3))
        injector.recurring(server, kind="crash", mean_interval=0.5,
                           duration=0.1, until=2.0)
        env.run(until=10.0)
        assert all(r.crashed_at < 2.0 + 0.5 for r in injector.records)
        assert not server.crashed

    def test_recurring_kind_validation(self):
        with pytest.raises(ConfigurationError):
            RecurringFault("m", kind="explode")
        env = Environment()
        injector = FaultInjector(env)
        with pytest.raises(ConfigurationError):
            injector.recurring(self.make_server(env), kind="explode")

    def test_unknown_spec_rejected(self):
        env = Environment()
        system = self.make_full_system(env)
        with pytest.raises(ConfigurationError):
            FaultInjector(env).inject(object(), system)

    def test_inject_all_schedules_everything(self):
        env = Environment()
        system = self.make_full_system(env)
        injector = FaultInjector(env)
        injector.inject_all(
            (CrashFault("tomcat1", at=1.0, duration=0.5),
             SlowFault("tomcat2", at=1.0, duration=0.5, factor=2.0)),
            system)
        env.run(until=3.0)
        assert len(injector.records) == 1
        assert len(injector.slow_records) == 1


def server_system(server):
    """Minimal NTierSystem stand-in resolving one server by name."""
    class _System:
        def server_named(self, name):
            assert name == server.name
            return server
    return _System()
