"""Unit tests for WindowedCounter and BusyTracker."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AnalysisError
from repro.metrics import PAPER_WINDOW, BusyTracker, WindowedCounter


class TestWindowedCounter:
    def test_default_window_is_50ms(self):
        assert WindowedCounter().window == PAPER_WINDOW == 0.050

    def test_validation(self):
        with pytest.raises(ValueError):
            WindowedCounter(window=0)
        counter = WindowedCounter()
        with pytest.raises(AnalysisError):
            counter.record(-0.1)

    def test_counts_land_in_right_window(self):
        counter = WindowedCounter(window=0.05)
        counter.record(0.01)
        counter.record(0.049)
        counter.record(0.05)
        counter.record(0.23, count=3)
        assert counter.count_in_window(0) == 2
        assert counter.count_in_window(1) == 1
        assert counter.count_in_window(4) == 3
        assert counter.total == 6

    def test_series_is_dense_with_zeros(self):
        counter = WindowedCounter(window=0.1)
        counter.record(0.05)
        counter.record(0.35)
        series = counter.series()
        assert series.times == pytest.approx([0.0, 0.1, 0.2, 0.3])
        assert series.values == [1, 0, 0, 1]

    def test_series_until_extends_with_zeros(self):
        counter = WindowedCounter(window=0.1)
        counter.record(0.05)
        series = counter.series(until=0.5)
        assert len(series) == 5
        assert series.values == [1, 0, 0, 0, 0]

    def test_empty_series(self):
        assert len(WindowedCounter().series()) == 0

    def test_peak(self):
        counter = WindowedCounter(window=0.1)
        counter.record(0.05)
        counter.record(0.25, count=4)
        time, count = counter.peak()
        assert time == pytest.approx(0.2)
        assert count == 4

    def test_peak_empty_raises(self):
        with pytest.raises(AnalysisError):
            WindowedCounter().peak()


class TestBusyTracker:
    def test_validation(self):
        with pytest.raises(ValueError):
            BusyTracker(slots=0)

    def test_single_slot_utilisation(self):
        cpu = BusyTracker(slots=1)
        cpu.acquire(1.0)
        cpu.release(3.0)
        assert cpu.utilization(0.0, 4.0) == pytest.approx(0.5)
        assert cpu.utilization(1.0, 3.0) == pytest.approx(1.0)
        assert cpu.utilization(3.0, 4.0) == pytest.approx(0.0)

    def test_multi_slot_utilisation(self):
        cpu = BusyTracker(slots=4)
        cpu.acquire(0.0, count=2)
        cpu.release(1.0, count=1)
        cpu.release(2.0, count=1)
        # 2 busy for 1s + 1 busy for 1s = 3 slot-seconds of 8 available.
        assert cpu.utilization(0.0, 2.0) == pytest.approx(3 / 8)

    def test_busy_seconds_running_total(self):
        cpu = BusyTracker(slots=2)
        cpu.acquire(0.0)
        assert cpu.busy_seconds(2.0) == pytest.approx(2.0)
        cpu.acquire(2.0)
        assert cpu.busy_seconds(3.0) == pytest.approx(4.0)

    def test_over_acquire_raises(self):
        cpu = BusyTracker(slots=1)
        cpu.acquire(0.0)
        with pytest.raises(AnalysisError):
            cpu.acquire(0.5)

    def test_over_release_raises(self):
        cpu = BusyTracker(slots=1)
        with pytest.raises(AnalysisError):
            cpu.release(0.0)

    def test_time_reversal_raises(self):
        cpu = BusyTracker(slots=1)
        cpu.acquire(5.0)
        with pytest.raises(AnalysisError):
            cpu.release(4.0)

    def test_empty_interval_raises(self):
        cpu = BusyTracker(slots=1)
        with pytest.raises(AnalysisError):
            cpu.utilization(1.0, 1.0)

    def test_utilisation_of_past_interval_after_more_activity(self):
        """Historical windows stay queryable after later acquire/release."""
        cpu = BusyTracker(slots=1)
        cpu.acquire(0.0)
        cpu.release(1.0)
        cpu.acquire(5.0)
        cpu.release(6.0)
        assert cpu.utilization(0.0, 2.0) == pytest.approx(0.5)
        assert cpu.utilization(0.5, 1.5) == pytest.approx(0.5)
        assert cpu.utilization(2.0, 4.0) == pytest.approx(0.0)
        assert cpu.utilization(4.5, 6.5) == pytest.approx(0.5)

    def test_utilization_series_matches_manual_windows(self):
        cpu = BusyTracker(slots=1)
        cpu.acquire(0.05)
        cpu.release(0.10)
        series = cpu.utilization_series(window=0.05, until=0.20)
        assert series.times == pytest.approx([0.0, 0.05, 0.10, 0.15])
        assert series.values == pytest.approx([0.0, 1.0, 0.0, 0.0])

    def test_utilization_series_bad_window(self):
        cpu = BusyTracker(slots=1)
        with pytest.raises(AnalysisError):
            cpu.utilization_series(window=0, until=1)

    def test_busy_slots_property(self):
        cpu = BusyTracker(slots=3)
        cpu.acquire(0.0, count=2)
        assert cpu.busy_slots == 2
        cpu.release(1.0)
        assert cpu.busy_slots == 1


@st.composite
def busy_histories(draw):
    """A slot count and a monotone acquire/release history within it."""
    slots = draw(st.integers(min_value=1, max_value=4))
    steps = draw(st.lists(
        st.tuples(st.one_of(st.just(0.0), st.floats(0.001, 1.0)),
                  st.booleans(), st.integers(min_value=1, max_value=4)),
        max_size=30))
    now, busy, history = 0.0, 0, []
    for gap, acquire, count in steps:
        now += gap
        count = min(count, slots - busy if acquire else busy)
        if count:
            busy += count if acquire else -count
            history.append((now, count if acquire else -count))
    return slots, history


def close(value):
    return pytest.approx(value, rel=1e-9, abs=1e-9)


def reference_busy(history, start, end):
    """Busy slot-seconds in ``[start, end)``, integrated segment by
    segment from the raw history."""
    total, level, since = 0.0, 0, 0.0
    for time, change in history + [(math.inf, 0)]:
        total += level * max(0.0, min(end, time) - max(start, since))
        level += change
        since = time
    return total


@settings(max_examples=150, deadline=None)
@given(busy_histories(), st.lists(
    st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    min_size=1, max_size=8),
    st.sampled_from([0.05, 0.1, 0.25]))
def test_busy_tracker_matches_reference_integration(history, fractions,
                                                    window):
    slots, changes = history
    tracker = BusyTracker(slots)
    for time, change in changes:
        if change > 0:
            tracker.acquire(time, change)
        else:
            tracker.release(time, -change)
    horizon = (changes[-1][0] if changes else 0.0) + 1.0
    assert tracker.busy_seconds(horizon) == close(
        reference_busy(changes, 0.0, horizon))
    # Intervals anywhere in the history, most of them in the past.
    for a, b in fractions:
        start, end = sorted((a * horizon, b * horizon))
        if end - start < 1e-6:
            continue
        assert tracker.utilization(start, end) == close(
            reference_busy(changes, start, end) / ((end - start) * slots))
    series = tracker.utilization_series(window, horizon)
    assert series.times == pytest.approx(
        [index * window for index in range(len(series))])
    # Every whole window up to the horizon, and no more.
    assert len(series) * window <= horizon + 1e-9
    assert (len(series) + 1) * window > horizon - 1e-9
    for edge, value in series:
        assert value == close(reference_busy(changes, edge, edge + window)
                               / (window * slots))
