"""Unit tests for the RUBBoS workload substrate."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.metrics import ResponseTimeRecorder
from repro.netmodel import ListenSocket
from repro.sim import Environment
from repro.workload import (
    BROWSING_ONLY_WEIGHTS,
    INTERACTIONS,
    Client,
    ClientPopulation,
    Request,
    Session,
    WorkloadMix,
    browsing_only_mix,
    get_interaction,
    read_write_mix,
)


class TestInteractions:
    def test_exactly_24_interactions(self):
        assert len(INTERACTIONS) == 24

    def test_lookup(self):
        interaction = get_interaction("ViewStory")
        assert interaction.name == "ViewStory"
        assert not interaction.is_write

    def test_unknown_lookup_raises(self):
        with pytest.raises(WorkloadError):
            get_interaction("NoSuchPage")

    def test_write_interactions_exist(self):
        writes = [i for i in INTERACTIONS.values() if i.is_write]
        assert {"StoreComment", "StoreStory", "RegisterUser",
                "AcceptStory", "RejectStory", "ModerateComment"} == {
                    i.name for i in writes}

    def test_demands_are_positive(self):
        for interaction in INTERACTIONS.values():
            assert interaction.apache_cpu > 0
            assert interaction.tomcat_cpu > 0
            assert interaction.mysql_cpu > 0
            assert interaction.log_bytes > 0
            assert interaction.traffic_bytes == (
                interaction.request_bytes + interaction.response_bytes)

    def test_app_tier_dominates_web_tier_cpu(self):
        # The servlet container does the dynamic-page work.
        for interaction in INTERACTIONS.values():
            assert interaction.tomcat_cpu > interaction.apache_cpu

    def test_writes_log_more(self):
        write_logs = min(i.log_bytes for i in INTERACTIONS.values()
                         if i.is_write)
        read_logs = max(i.log_bytes for i in INTERACTIONS.values()
                        if not i.is_write)
        assert write_logs > read_logs


class TestMixes:
    def test_browsing_only_has_no_writes(self):
        assert browsing_only_mix().write_fraction == 0.0

    def test_read_write_is_about_ten_percent_writes(self):
        assert 0.05 <= read_write_mix().write_fraction <= 0.15

    def test_transition_matrix_is_stochastic(self):
        for mix in (browsing_only_mix(), read_write_mix()):
            matrix = mix.transition_matrix
            assert matrix.shape == (24, 24)
            assert np.all(matrix >= 0)
            assert np.allclose(matrix.sum(axis=1), 1.0)

    def test_initial_distribution_sums_to_one(self):
        dist = read_write_mix().initial_distribution()
        assert np.isclose(dist.sum(), 1.0)

    def test_affinity_boost_visible(self):
        mix = read_write_mix()
        i = mix.states.index("PostCommentForm")
        j = mix.states.index("StoreComment")
        # The form overwhelmingly leads to the store action.
        assert mix.transition_matrix[i, j] > 0.3

    def test_zero_weight_states_never_sampled_initially(self):
        mix = browsing_only_mix()
        rng = np.random.default_rng(0)
        names = {mix.first_state(rng) for _ in range(500)}
        for name in names:
            assert BROWSING_ONLY_WEIGHTS[name] > 0

    @pytest.mark.parametrize("make_mix", [read_write_mix, browsing_only_mix])
    def test_cdf_sampler_reproduces_rng_choice_draw_for_draw(self, make_mix):
        """next_state/first_state are numpy's weighted choice, exactly.

        The reference is ``rng.choice(n, p=row, size=draws)``, which
        draws ``draws`` consecutive doubles just as that many scalar
        ``rng.choice(n, p=row)`` calls do (pinned on a short prefix).
        """
        mix = make_mix()
        n, draws = len(mix.states), 20_000
        rows = [(state, mix.transition_matrix[i])
                for i, state in enumerate(mix.states)]
        rows.append((None, mix.initial_distribution()))
        for seed, (state, row) in enumerate(rows):
            expected = np.random.default_rng(seed).choice(
                n, p=row, size=draws)
            scalar_rng = np.random.default_rng(seed)
            assert [int(scalar_rng.choice(n, p=row))
                    for _ in range(200)] == expected[:200].tolist()
            rng = np.random.default_rng(seed)
            if state is None:
                drawn = [mix.first_state(rng) for _ in range(draws)]
            else:
                drawn = [mix.next_state(state, rng) for _ in range(draws)]
            assert drawn == [mix.states[i] for i in expected]
            assert all(row[mix.states.index(name)] > 0
                       for name in set(drawn))

    def test_validation(self):
        with pytest.raises(WorkloadError):
            WorkloadMix("bad", {"ViewStory": 1.0})  # missing others
        with pytest.raises(WorkloadError):
            WorkloadMix("bad", dict(BROWSING_ONLY_WEIGHTS,
                                    NotAPage=1.0))
        with pytest.raises(WorkloadError):
            WorkloadMix("bad", {name: 0.0 for name in INTERACTIONS})


class TestSession:
    def test_walk_stays_in_state_space(self):
        session = Session(read_write_mix(), np.random.default_rng(7))
        for _ in range(200):
            interaction = session.next_interaction()
            assert interaction.name in INTERACTIONS
        assert session.interactions_issued() == 200

    def test_current_tracks_last_interaction(self):
        session = Session(read_write_mix(), np.random.default_rng(7))
        assert session.current is None
        interaction = session.next_interaction()
        assert session.current == interaction.name

    def test_browsing_session_never_writes(self):
        session = Session(browsing_only_mix(), np.random.default_rng(3))
        for _ in range(500):
            assert not session.next_interaction().is_write

    def test_deterministic_given_seed(self):
        def walk(seed):
            session = Session(read_write_mix(), np.random.default_rng(seed))
            return [session.next_interaction().name for _ in range(50)]
        assert walk(5) == walk(5)
        assert walk(5) != walk(6)


class TestRequest:
    def test_metadata_lifecycle(self):
        env = Environment()
        request = Request(env, 1, get_interaction("ViewStory"), client_id=9)
        assert request.created_at == 0.0
        assert request.served_by is None
        assert request.retransmissions == 0
        assert not request.completion.triggered
        assert request.traffic_bytes == request.interaction.traffic_bytes
        assert "ViewStory" in repr(request)


class FakeBackend:
    """Accepts requests from a socket and completes them after a delay."""

    def __init__(self, env, socket, delay=0.002):
        self.env = env
        self.socket = socket
        self.delay = delay
        self.processed = 0
        env.process(self._run())

    def _run(self):
        while True:
            request = yield self.socket.accept()
            yield self.env.timeout(self.delay)
            self.processed += 1
            request.served_by = "fake"
            request.completion.succeed(request)


class TestClient:
    def test_closed_loop_issues_and_records(self):
        env = Environment()
        socket = ListenSocket(env, backlog=100)
        backend = FakeBackend(env, socket)
        recorder = ResponseTimeRecorder()
        client = Client(env, 0, socket, read_write_mix(), recorder,
                        np.random.default_rng(1), think_time=0.05)
        env.run(until=5.0)
        assert client.requests_completed > 10
        assert len(recorder) == client.requests_completed
        assert backend.processed == client.requests_completed
        # Closed loop: never more than one outstanding request.
        assert all(r.served_by == "fake" for r in recorder.requests)

    def test_think_time_validation(self):
        env = Environment()
        socket = ListenSocket(env, backlog=10)
        with pytest.raises(ValueError):
            Client(env, 0, socket, read_write_mix(), ResponseTimeRecorder(),
                   np.random.default_rng(1), think_time=0)

    def test_abandoned_requests_counted(self):
        env = Environment()
        socket = ListenSocket(env, backlog=1)
        socket.offer("squatter-that-never-leaves")
        recorder = ResponseTimeRecorder()
        client = Client(env, 0, socket, read_write_mix(), recorder,
                        np.random.default_rng(1), think_time=0.2)
        env.run(until=30.0)
        assert client.requests_abandoned > 0
        assert client.requests_completed == 0
        assert len(recorder) == 0


class TestClientPopulation:
    def test_spawns_and_splits_clients(self):
        env = Environment()
        sockets = [ListenSocket(env, backlog=100) for _ in range(2)]
        for socket in sockets:
            FakeBackend(env, socket)
        population = ClientPopulation(
            env, sockets, total_clients=10, mix=read_write_mix(),
            rng=np.random.default_rng(2), think_time=0.05, ramp_up=0.1)
        env.run(until=3.0)
        assert len(population) == 10
        per_socket = [sum(1 for c in population.clients
                          if c.socket is s) for s in sockets]
        assert per_socket == [5, 5]
        assert population.requests_completed > 50
        assert population.packets_dropped == 0

    def test_validation(self):
        env = Environment()
        from repro.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            ClientPopulation(env, [], 10, read_write_mix(),
                             np.random.default_rng(0))
        socket = ListenSocket(env, backlog=10)
        with pytest.raises(ConfigurationError):
            ClientPopulation(env, [socket], 0, read_write_mix(),
                             np.random.default_rng(0))

    def test_request_ids_unique(self):
        env = Environment()
        socket = ListenSocket(env, backlog=100)
        FakeBackend(env, socket)
        population = ClientPopulation(
            env, [socket], total_clients=5, mix=read_write_mix(),
            rng=np.random.default_rng(3), think_time=0.05)
        env.run(until=2.0)
        ids = [r.request_id for r in population.recorder.requests]
        assert len(ids) == len(set(ids))
