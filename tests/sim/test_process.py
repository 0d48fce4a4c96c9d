"""Process semantics: suspension, return values, interrupts, failures."""

import pytest

from repro.sim import Interrupt, SimError


def test_process_advances_through_timeouts(sim):
    trace = []

    def worker():
        trace.append(sim.now)
        yield sim.timeout(1.5)
        trace.append(sim.now)
        yield sim.timeout(2.5)
        trace.append(sim.now)

    sim.process(worker())
    sim.run()
    assert trace == [0.0, 1.5, 4.0]


def test_process_return_value_becomes_trigger_value(sim):
    def worker():
        yield sim.timeout(1.0)
        return "result"

    proc = sim.process(worker())
    sim.run()
    assert proc.value == "result"


def test_timeout_value_sent_into_generator(sim):
    seen = []

    def worker():
        value = yield sim.timeout(1.0, value="payload")
        seen.append(value)

    sim.process(worker())
    sim.run()
    assert seen == ["payload"]


def test_process_waiting_on_process(sim):
    def child():
        yield sim.timeout(2.0)
        return "child-done"

    def parent():
        result = yield sim.process(child())
        return "parent saw " + result

    proc = sim.process(parent())
    sim.run()
    assert proc.value == "parent saw child-done"


def test_interrupt_raises_inside_process(sim):
    caught = []

    def sleeper():
        try:
            yield sim.timeout(100.0)
        except Interrupt as interrupt:
            caught.append((sim.now, interrupt.cause))
            return "woken"

    proc = sim.process(sleeper())
    sim.schedule(2.0, proc.interrupt, "reason")
    sim.run()
    assert caught == [(2.0, "reason")]
    assert proc.value == "woken"


def test_interrupt_after_completion_is_noop(sim):
    def quick():
        yield sim.timeout(1.0)
        return "done"

    proc = sim.process(quick())
    sim.schedule(5.0, proc.interrupt)
    sim.run()
    assert proc.value == "done"


def test_stale_wakeup_ignored_after_interrupt(sim):
    """The original timeout firing later must not resume the process."""
    resumed = []

    def sleeper():
        try:
            yield sim.timeout(10.0)
            resumed.append("bad")
        except Interrupt:
            yield sim.timeout(20.0)
            resumed.append("good")

    proc = sim.process(sleeper())
    sim.schedule(1.0, proc.interrupt)
    sim.run()
    assert resumed == ["good"]
    assert proc.triggered


def test_uncaught_process_exception_propagates(sim):
    def crasher():
        yield sim.timeout(1.0)
        raise RuntimeError("kaboom")

    sim.process(crasher())
    with pytest.raises(RuntimeError, match="kaboom"):
        sim.run()


def test_waited_process_exception_delivered_to_waiter(sim):
    def crasher():
        yield sim.timeout(1.0)
        raise RuntimeError("inner")

    outcome = []

    def parent():
        try:
            yield sim.process(crasher())
        except RuntimeError as error:
            outcome.append(str(error))

    sim.process(parent())
    sim.run()
    assert outcome == ["inner"]


def test_yielding_non_waitable_fails_process(sim):
    def bad():
        yield "soon"  # neither a waitable nor a delay

    outcome = []

    def parent():
        try:
            yield sim.process(bad())
        except SimError as error:
            outcome.append("caught")

    sim.process(parent())
    sim.run()
    assert outcome == ["caught"]


def test_process_requires_generator(sim):
    with pytest.raises(TypeError):
        sim.process(lambda: None)


def test_is_alive_tracks_lifecycle(sim):
    def worker():
        yield sim.timeout(5.0)

    proc = sim.process(worker())
    assert proc.is_alive
    sim.run()
    assert not proc.is_alive
