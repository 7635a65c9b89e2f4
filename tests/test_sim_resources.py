"""Unit tests for Resource, PriorityResource, and Container."""

import pytest

from repro.errors import SimulationError
from repro.sim import Container, Environment, PriorityResource, Resource


def test_capacity_validation():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_immediate_grant_when_free():
    env = Environment()
    res = Resource(env, capacity=2)

    def proc(env):
        req = res.request()
        assert req.triggered  # granted synchronously
        yield req
        return res.count

    p = env.process(proc(env))
    env.run()
    assert p.value == 1


def test_fifo_queueing():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def worker(env, tag, hold):
        with res.request() as req:
            yield req
            order.append((tag, env.now))
            yield env.timeout(hold)

    for tag in range(3):
        env.process(worker(env, tag, 1.0))
    env.run()
    assert order == [(0, 0.0), (1, 1.0), (2, 2.0)]


def test_counts_and_queue_length():
    env = Environment()
    res = Resource(env, capacity=2)

    def holder(env):
        with res.request() as req:
            yield req
            yield env.timeout(10)

    for _ in range(5):
        env.process(holder(env))
    env.run(until=1)
    assert res.count == 2
    assert res.available == 0
    assert res.queue_length == 3
    assert res.capacity == 2


def test_release_admits_next_waiter():
    env = Environment()
    res = Resource(env, capacity=1)
    granted = []

    def first(env):
        req = res.request()
        yield req
        yield env.timeout(2)
        res.release(req)

    def second(env):
        yield env.timeout(0.5)
        with res.request() as req:
            yield req
            granted.append(env.now)

    env.process(first(env))
    env.process(second(env))
    env.run()
    assert granted == [2.0]


def test_release_unowned_request_raises():
    env = Environment()
    res = Resource(env)

    def proc(env):
        req = res.request()
        yield req
        res.release(req)
        with pytest.raises(SimulationError):
            res.release(req)

    env.process(proc(env))
    env.run()


def test_cancel_pending_request():
    env = Environment()
    res = Resource(env, capacity=1)

    def hog(env):
        with res.request() as req:
            yield req
            yield env.timeout(10)

    def impatient(env):
        req = res.request()
        outcome = yield req | env.timeout(0.3)
        assert req not in outcome
        req.cancel()
        return env.now

    env.process(hog(env))
    p = env.process(impatient(env))
    env.run()
    assert p.value == 0.3
    assert res.queue_length == 0


def test_cancel_granted_request_raises():
    env = Environment()
    res = Resource(env)

    def proc(env):
        req = res.request()
        yield req
        with pytest.raises(SimulationError):
            req.cancel()
        res.release(req)

    env.process(proc(env))
    env.run()


def test_cancel_or_release_handles_both_states():
    env = Environment()
    res = Resource(env, capacity=1)

    def hog(env):
        req = res.request()
        yield req
        yield env.timeout(5)
        req.cancel_or_release()  # granted -> release

    def waiter(env):
        yield env.timeout(1)
        req = res.request()
        outcome = yield req | env.timeout(0.1)
        req.cancel_or_release()  # pending -> cancel
        return req.triggered

    env.process(hog(env))
    p = env.process(waiter(env))
    env.run()
    assert p.value is False
    assert res.count == 0
    assert res.queue_length == 0


def test_yield_grant_evaluates_to_the_request():
    env = Environment()
    res = Resource(env, capacity=1)

    def proc(env):
        with res.request() as req:
            granted = yield req
            assert granted is req
            assert req.value is req
        return req

    p = env.process(proc(env))
    env.run()
    assert p.value.triggered


def test_grant_is_a_member_of_a_racing_condition():
    env = Environment()
    res = Resource(env, capacity=1)

    def proc(env):
        req = res.request()
        outcome = yield req | env.timeout(1.0)
        assert req in outcome
        assert outcome[req] is req
        res.release(req)
        return env.now

    p = env.process(proc(env))
    env.run()
    assert p.value == 0.0


def test_release_drops_the_grant_self_reference():
    """A granted request's value is itself — a reference cycle; release
    drops it, and the request stays triggered."""
    env = Environment()
    res = Resource(env, capacity=1)

    def proc(env):
        req = res.request()
        yield req
        res.release(req)
        assert req.triggered
        assert req.value is None
        return req

    p = env.process(proc(env))
    env.run()
    assert p.value.triggered
    assert res.count == 0


def test_double_cancel_or_release_raises():
    env = Environment()
    res = Resource(env, capacity=1)

    def proc(env):
        req = res.request()
        yield req
        req.cancel_or_release()
        with pytest.raises(SimulationError):
            req.cancel_or_release()

    env.process(proc(env))
    env.run()
    assert res.count == 0


def test_cancelled_request_is_skipped_on_release():
    env = Environment()
    res = Resource(env, capacity=1)
    served = []

    def hog(env):
        req = res.request()
        yield req
        yield env.timeout(1)
        res.release(req)

    def quitter(env):
        req = res.request()
        yield env.timeout(0.5)
        req.cancel()

    def patient(env):
        with res.request() as req:
            yield req
            served.append(env.now)

    env.process(hog(env))
    env.process(quitter(env))
    env.process(patient(env))
    env.run()
    assert served == [1.0]


def test_request_records_issue_time():
    env = Environment()
    res = Resource(env, capacity=1)

    def proc(env):
        yield env.timeout(2.5)
        req = res.request()
        yield req
        return req.issued_at

    p = env.process(proc(env))
    env.run()
    assert p.value == 2.5


def test_priority_resource_orders_waiters():
    env = Environment()
    res = PriorityResource(env, capacity=1)
    order = []

    def hog(env):
        with res.request() as req:
            yield req
            yield env.timeout(1)

    def worker(env, prio, tag):
        yield env.timeout(0.1)
        with res.request(priority=prio) as req:
            yield req
            order.append(tag)
            yield env.timeout(0.1)

    env.process(hog(env))
    env.process(worker(env, 5, "low"))
    env.process(worker(env, 1, "high"))
    env.process(worker(env, 3, "mid"))
    env.run()
    assert order == ["high", "mid", "low"]


def test_priority_ties_break_fifo():
    env = Environment()
    res = PriorityResource(env, capacity=1)
    order = []

    def hog(env):
        with res.request() as req:
            yield req
            yield env.timeout(1)

    def worker(env, tag):
        yield env.timeout(0.1)
        with res.request(priority=2) as req:
            yield req
            order.append(tag)

    env.process(hog(env))
    for tag in ["a", "b", "c"]:
        env.process(worker(env, tag))
    env.run()
    assert order == ["a", "b", "c"]


def test_container_levels():
    env = Environment()
    box = Container(env, capacity=100, init=10)
    assert box.level == 10
    assert box.capacity == 100

    def proc(env):
        yield box.put(40)
        assert box.level == 50
        yield box.get(25)
        assert box.level == 25

    env.process(proc(env))
    env.run()


def test_container_get_waits_for_amount():
    env = Environment()
    box = Container(env)
    times = []

    def consumer(env):
        yield box.get(10)
        times.append(env.now)

    def producer(env):
        for _ in range(5):
            yield env.timeout(1)
            yield box.put(3)

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    # 3 puts of 3 reach 9 at t=3; the 4th put reaches 12 >= 10 at t=4.
    assert times == [4.0]
    assert box.level == pytest.approx(5.0)


def test_container_put_waits_for_room():
    env = Environment()
    box = Container(env, capacity=10, init=8)
    times = []

    def producer(env):
        yield box.put(5)
        times.append(env.now)

    def consumer(env):
        yield env.timeout(2)
        yield box.get(4)

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert times == [2.0]
    assert box.level == pytest.approx(9.0)


def test_container_validation():
    env = Environment()
    with pytest.raises(ValueError):
        Container(env, capacity=0)
    with pytest.raises(ValueError):
        Container(env, capacity=5, init=9)
    box = Container(env)
    with pytest.raises(ValueError):
        box.put(0)
    with pytest.raises(ValueError):
        box.get(-3)


def test_resource_repr():
    env = Environment()
    res = Resource(env, capacity=3)
    assert "capacity=3" in repr(res)
