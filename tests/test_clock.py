"""Simulation clock: event ordering, fast-forward, conversions."""

from __future__ import annotations

import pytest

from repro.clock import IDLE, Clock


def test_advance_moves_time():
    clock = Clock(100e6)
    clock.advance(50)
    assert clock.now == 50
    assert clock.seconds() == pytest.approx(50 / 100e6)


def test_events_fire_in_timestamp_order():
    clock = Clock()
    fired = []
    clock.schedule_at(30, lambda: fired.append("c"))
    clock.schedule_at(10, lambda: fired.append("a"))
    clock.schedule_at(20, lambda: fired.append("b"))
    clock.advance_to(25)
    assert fired == ["a", "b"]
    clock.advance_to(35)
    assert fired == ["a", "b", "c"]


def test_same_cycle_events_fifo():
    clock = Clock()
    fired = []
    clock.schedule_at(10, lambda: fired.append(1))
    clock.schedule_at(10, lambda: fired.append(2))
    clock.advance_to(10)
    assert fired == [1, 2]


def test_callback_sees_its_own_timestamp():
    clock = Clock()
    seen = []
    clock.schedule_at(40, lambda: seen.append(clock.now))
    clock.advance_to(100)
    assert seen == [40]
    assert clock.now == 100


def test_callback_may_schedule_followups():
    clock = Clock()
    fired = []

    def first():
        fired.append("first")
        clock.schedule_at(clock.now + 5, lambda: fired.append("second"))

    clock.schedule_at(10, first)
    clock.advance_to(20)
    assert fired == ["first", "second"]


def test_fast_forward_jumps_to_next_event():
    clock = Clock()
    fired = []
    clock.schedule_at(1000, lambda: fired.append(True))
    assert clock.fast_forward_to_next_event()
    assert clock.now == 1000 and fired == [True]
    assert not clock.fast_forward_to_next_event()  # queue empty
    assert clock.now == 1000


def test_next_event_cycle():
    clock = Clock()
    assert clock.due == IDLE
    clock.schedule_at(7, lambda: None)
    assert clock.due == 7


def test_cannot_schedule_in_the_past():
    clock = Clock()
    clock.advance(10)
    with pytest.raises(ValueError):
        clock.schedule_at(5, lambda: None)


def test_cannot_rewind():
    clock = Clock()
    clock.advance(10)
    with pytest.raises(ValueError):
        clock.advance_to(5)
    with pytest.raises(ValueError):
        clock.advance(-1)


def test_reset_clears_everything():
    clock = Clock()
    clock.schedule_at(10, lambda: None)
    clock.advance(5)
    clock.reset()
    assert clock.now == 0
    assert clock.due == IDLE


def test_invalid_frequency_rejected():
    with pytest.raises(ValueError):
        Clock(0)


def test_seconds_of_explicit_cycles():
    clock = Clock(200e6)
    assert clock.seconds(200) == pytest.approx(1e-6)
