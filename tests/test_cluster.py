"""Unit tests for configuration, topology, scenarios, and the CLI."""

import numpy as np
import pytest

from repro.cluster import (
    ExperimentConfig,
    HardwareConfig,
    PaperTierConfig,
    ScaleProfile,
    Scenario,
    SoftwareStack,
    build_system,
)
from repro.cluster.scenarios import (
    baseline_no_millibottleneck,
    policy_run,
    single_node_millibottleneck,
    table1_run,
)
from repro.core import get_bundle
from repro.errors import ConfigurationError
from repro.sim import Environment


class TestPaperConstants:
    def test_table2_software_stack(self):
        stack = SoftwareStack()
        assert "2.2.22" in stack.web_server
        assert "5.5.17" in stack.application_server
        assert "mod_jk" in stack.connector

    def test_table2_hardware(self):
        hardware = HardwareConfig()
        assert hardware.cores == 4
        assert hardware.memory_gb == 12

    def test_table3_values(self):
        tiers = PaperTierConfig()
        assert tiers.apache_max_clients == 200
        assert tiers.worker_connection_pool_size == 25
        assert tiers.tomcat_max_threads == 210
        assert tiers.db_connections_total == 48


class TestScaleProfile:
    def test_default_preserves_worker_to_pool_ratio(self):
        profile = ScaleProfile()
        paper = PaperTierConfig()
        ours = profile.apache_max_clients / profile.connection_pool_size
        theirs = (paper.apache_threads_per_child
                  / paper.worker_connection_pool_size)
        assert ours == pytest.approx(theirs)

    def test_paper_profile_matches_table3(self):
        profile = ScaleProfile.paper()
        assert profile.clients == 70000
        assert profile.apache_max_clients == 200
        assert profile.tomcat_max_threads == 210
        assert profile.connection_pool_size == 25

    def test_topology_matches_fig14(self):
        profile = ScaleProfile()
        assert profile.apache_count == 4
        assert profile.tomcat_count == 4

    def test_flush_profiles_staggered(self):
        profile = ScaleProfile()
        phases = [profile.tomcat_flush_profile(i).phase for i in range(4)]
        assert phases == [0.0, 1.0, 2.0, 3.0]

    def test_scaled_factor(self):
        profile = ScaleProfile().scaled(0.5)
        assert profile.clients == 1000
        assert profile.apache_max_clients == 12
        with pytest.raises(ConfigurationError):
            ScaleProfile().scaled(0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ScaleProfile(apache_count=0)
        with pytest.raises(ConfigurationError):
            ScaleProfile(clients=0)
        with pytest.raises(ConfigurationError):
            ScaleProfile(think_time=0)


class TestBuildSystem:
    def test_builds_fig14_topology(self):
        env = Environment()
        system = build_system(env, ScaleProfile(),
                              bundle=get_bundle("current_load"))
        assert len(system.apaches) == 4
        assert len(system.tomcats) == 4
        assert len(system.balancers) == 4
        assert len(system.hosts) == 9
        assert {server.name for server in system.servers} == {
            "apache1", "apache2", "apache3", "apache4",
            "tomcat1", "tomcat2", "tomcat3", "tomcat4", "mysql1"}

    def test_balancers_are_independent(self):
        env = Environment()
        system = build_system(env, ScaleProfile(),
                              bundle=get_bundle("current_load"))
        policies = {id(balancer.policy) for balancer in system.balancers}
        assert len(policies) == 4  # one policy instance per Apache

    def test_flush_daemons_follow_flags(self):
        env = Environment()
        system = build_system(env, ScaleProfile(),
                              bundle=get_bundle("current_load"),
                              tomcat_millibottlenecks=False)
        assert all(not t.host.flush_profile.enabled for t in system.tomcats)
        system2 = build_system(Environment(), ScaleProfile(),
                               bundle=get_bundle("current_load"),
                               tomcat_millibottlenecks=True)
        assert all(t.host.flush_profile.enabled for t in system2.tomcats)

    def test_no_balancer_round_robins_all_replicas(self):
        system = build_system(Environment(), ScaleProfile(),
                              use_balancer=False)
        assert len(system.direct_dispatchers) == 4
        assert not system.balancers
        for dispatcher in system.direct_dispatchers:
            assert [backend.name for backend in dispatcher.backends] == [
                "tomcat1", "tomcat2", "tomcat3", "tomcat4"]
        system2 = build_system(Environment(), ScaleProfile.single_node(),
                               use_balancer=False)
        assert system2.direct_dispatchers
        assert not system2.balancers

    def test_requires_bundle_or_factories(self):
        env = Environment()
        with pytest.raises(ConfigurationError):
            build_system(env, ScaleProfile())

    def test_server_named(self):
        system = build_system(Environment(), ScaleProfile(),
                              bundle=get_bundle("current_load"))
        assert system.server_named("mysql1").name == "mysql1"
        with pytest.raises(ConfigurationError):
            system.server_named("nope")


class TestScenarios:
    def test_registry_covers_figures_and_table(self):
        keys = Scenario.keys()
        assert "fig1/baseline" in keys
        assert "fig2/anatomy" in keys
        assert "table1/original_total_request" in keys
        assert "run/current_load" in keys

    def test_named_returns_config(self):
        config = Scenario.named("table1/current_load")
        assert isinstance(config, ExperimentConfig)
        assert config.bundle_key == "current_load"
        assert not config.trace_lb_values  # table runs skip tracing

    def test_unknown_scenario(self):
        with pytest.raises(ConfigurationError):
            Scenario.named("nope")

    def test_baseline_disables_millibottlenecks(self):
        config = baseline_no_millibottleneck()
        assert not config.tomcat_millibottlenecks
        assert not config.apache_millibottlenecks

    def test_single_node_uses_direct_dispatch(self):
        config = single_node_millibottleneck()
        assert not config.use_balancer
        assert config.apache_millibottlenecks
        assert config.profile.apache_count == 1

    def test_policy_run_traces(self):
        config = policy_run("current_load")
        assert config.trace_lb_values
        with pytest.raises(ConfigurationError):
            policy_run("nope")

    def test_experiment_config_validation(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(duration=0)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(sample_window=0)

    @pytest.mark.parametrize("field", ["duration", "sample_window"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       -float("inf")])
    def test_experiment_config_rejects_non_finite(self, field, value):
        with pytest.raises(ConfigurationError, match="finite"):
            ExperimentConfig(**{field: value})

    @pytest.mark.parametrize("seed", [-1, 1.5, "7", None])
    def test_experiment_config_rejects_invalid_seed(self, seed):
        with pytest.raises(ConfigurationError, match="seed"):
            ExperimentConfig(seed=seed)

    def test_experiment_config_accepts_numpy_integer_seed(self):
        assert ExperimentConfig(seed=np.int64(7)).seed == 7
        assert ExperimentConfig(seed=0).seed == 0


class TestCli:
    def test_list(self, capsys):
        from repro.cli import main
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table1/current_load" in out

    def test_run_scenario(self, capsys):
        from repro.cli import main
        assert main(["run", "table1/current_load",
                     "--duration", "2", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "current_load" in out
        assert "avg RT" in out


class TestPaperScaleProfile:
    def test_paper_profile_builds_a_full_system(self):
        """The full-scale Table III profile wires up (running it is for
        the patient, but construction must be cheap and correct)."""
        from repro.sim import Environment

        env = Environment()
        system = build_system(Environment(), ScaleProfile.paper(),
                              bundle=get_bundle("original_total_request"))
        assert system.apaches[0].max_clients == 200
        assert system.tomcats[0].max_threads == 210
        assert system.mysql.connections.capacity == 48
        assert system.balancers[0].members[0].pool.capacity == 25
