"""Event loop semantics: ordering, priorities, cancellation, run bounds."""

import pytest

from repro.sim import (
    PRIORITY_INTERRUPT,
    PRIORITY_LOW,
    SimError,
)


def test_schedule_runs_at_absolute_offset(sim):
    fired = []
    sim.schedule(5.0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [5.0]


def test_events_run_in_time_order(sim):
    order = []
    sim.schedule(3.0, order.append, "c")
    sim.schedule(1.0, order.append, "a")
    sim.schedule(2.0, order.append, "b")
    sim.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_run_in_insertion_order(sim):
    order = []
    for name in "abcde":
        sim.schedule(1.0, order.append, name)
    sim.run()
    assert order == list("abcde")


def test_priority_breaks_time_ties(sim):
    order = []
    sim.schedule(1.0, order.append, "low", priority=PRIORITY_LOW)
    sim.schedule(1.0, order.append, "normal")
    sim.schedule(1.0, order.append, "irq", priority=PRIORITY_INTERRUPT)
    sim.run()
    assert order == ["irq", "normal", "low"]


def test_cancel_prevents_callback(sim):
    fired = []
    handle = sim.schedule(1.0, fired.append, "x")
    handle.cancel()
    sim.run()
    assert fired == []
    assert handle.cancelled


def test_cancel_is_idempotent(sim):
    handle = sim.schedule(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    sim.run()


def test_negative_delay_rejected(sim):
    with pytest.raises(SimError):
        sim.schedule(-1.0, lambda: None)


def test_run_until_stops_clock_exactly(sim):
    sim.schedule(10.0, lambda: None)
    sim.run(until=4.0)
    assert sim.now == 4.0
    sim.run(until=20.0)
    assert sim.now == 20.0


def test_run_until_in_past_rejected(sim):
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimError):
        sim.run(until=0.5)


def test_step_processes_single_event(sim):
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(2.0, fired.append, 2)
    assert sim.step()
    assert fired == [1]
    assert sim.step()
    assert not sim.step()


def test_schedule_at_absolute_time(sim):
    fired = []
    sim.schedule(1.0, lambda: sim.schedule_at(5.0, fired.append, "later"))
    sim.run()
    assert fired == ["later"]
    assert sim.now == 5.0


def test_call_soon_runs_at_current_time(sim):
    times = []
    sim.schedule(2.0, lambda: sim.call_soon(lambda: times.append(sim.now)))
    sim.run()
    assert times == [2.0]


def test_nested_scheduling_from_callbacks(sim):
    order = []

    def outer():
        order.append("outer")
        sim.schedule(1.0, order.append, "inner")

    sim.schedule(1.0, outer)
    sim.run()
    assert order == ["outer", "inner"]
    assert sim.now == 2.0


def test_reentrant_run_rejected(sim):
    def nested():
        with pytest.raises(SimError):
            sim.run()

    sim.schedule(1.0, nested)
    sim.run()


def test_run_until_triggered_returns_value(sim):
    waitable = sim.timeout(3.0, value="done")
    assert sim.run_until_triggered(waitable) == "done"
    assert sim.now == 3.0


def test_run_until_triggered_raises_on_drained_heap(sim):
    waitable = sim.waitable()
    with pytest.raises(SimError):
        sim.run_until_triggered(waitable)
