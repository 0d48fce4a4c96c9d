"""Direct-resume wakeups keep the dispatch order of the waitable path.

A process that yields a bare delay, or a waitable that has already
triggered, may be resumed straight from the timer or from ``_advance``
instead of through a delivery-lane hop.  These tests drive the same
random program through eight simulators in lockstep (bare delays or
``sim.timeout``; fast lane on or off; calendar or heap store) and
require identical dispatch traces and ``events_scheduled`` after every
step.  The program mixes same-time ``schedule``/``call_soon`` at all
three priorities, waitable triggers, interrupts, and processes that
start a new delay right after being interrupted or queue same-time
work of their own.
"""

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.sim import Interrupt, SimError, Simulator

#: Exact binary fractions, ints among them, so timers tie often.
DELAYS = st.sampled_from([0, 0.25, 0.5, 1, 1.0, 1.5])
PRIORITIES = st.integers(min_value=0, max_value=2)
GATES = 3
STEP = st.one_of(
    st.tuples(st.just("sleep"), DELAYS),
    st.tuples(st.just("wait"), st.integers(0, GATES - 1)),
    st.tuples(st.just("ready"), st.booleans()),
    st.tuples(st.just("poke"), PRIORITIES),
)
ACTION = st.one_of(
    st.tuples(st.just("log"), st.integers(0, 9)),
    st.tuples(st.just("trigger"), st.integers(0, GATES - 1), st.booleans()),
    st.tuples(st.just("interrupt"), st.integers(0, 7)),
    st.tuples(st.just("soon"), PRIORITIES),
    st.tuples(st.just("now"), PRIORITIES),
)


class Boom(Exception):
    pass


class World:
    """One simulator running the machine's program."""

    def __init__(self, bare, fast_lane, event_store):
        self.sim = Simulator(fast_lane=fast_lane, event_store=event_store)
        self.bare = bare
        self.trace = []
        self.gates = [self.sim.waitable() for _ in range(GATES)]
        self.procs = []

    def _ready(self, ok):
        waitable = self.sim.waitable()
        return waitable.succeed("ready") if ok else waitable.defuse().fail(Boom("ready"))

    def _body(self, pid, steps):
        sim = self.sim
        for index, (kind, arg) in enumerate(steps):
            try:
                if kind == "sleep":
                    got = yield (arg if self.bare else sim.timeout(arg))
                elif kind == "wait":
                    got = yield self.gates[arg]
                elif kind == "poke":  # same-time work, then a ready waitable
                    sim.call_soon(self.trace.append, (sim.now, "poke"), priority=arg)
                    got = yield self._ready(True)
                else:
                    got = yield self._ready(arg)
                outcome = ("ok", got)
            except Interrupt as interrupt:
                outcome = ("interrupt", interrupt.cause)
            except Boom as boom:
                outcome = ("boom", str(boom))
            self.trace.append((sim.now, "proc", pid, index, outcome))

    def spawn(self, steps):
        self.procs.append(self.sim.process(self._body(len(self.procs), steps)))

    def trigger(self, gate, ok):
        waitable = self.gates[gate]
        self.gates[gate] = self.sim.waitable()
        if ok:
            waitable.succeed(gate)
        else:
            waitable.defuse().fail(Boom(gate))

    def fire(self, action):
        sim = self.sim
        self.trace.append((sim.now, "event", action))
        kind = action[0]
        if kind == "trigger":
            self.trigger(action[1], action[2])
        elif kind == "interrupt" and self.procs:
            self.procs[action[1] % len(self.procs)].interrupt(action)
        elif kind == "soon":
            sim.call_soon(self.trace.append, (sim.now, "soon"), priority=action[1])
        elif kind == "now":
            sim.schedule(0.0, self.trace.append, (sim.now, "now"), priority=action[1])

    def digest(self):
        return self.trace, self.sim.stats()["events_scheduled"], self.sim.now


class WakeupMachine(RuleBasedStateMachine):
    """Bare-delay and Timeout worlds must never diverge."""

    def __init__(self):
        super().__init__()
        self.worlds = [
            World(bare, fast_lane, store)
            for bare in (True, False)
            for fast_lane in (True, False)
            for store in ("calendar", "heap")
        ]

    @rule(steps=st.lists(STEP, min_size=1, max_size=6))
    def spawn(self, steps):
        for world in self.worlds:
            world.spawn(steps)

    @rule(delay=DELAYS, priority=PRIORITIES, action=ACTION)
    def schedule(self, delay, priority, action):
        for world in self.worlds:
            world.sim.schedule(delay, world.fire, action, priority=priority)

    @rule(priority=PRIORITIES, action=ACTION)
    def call_soon(self, priority, action):
        for world in self.worlds:
            world.sim.call_soon(world.fire, action, priority=priority)

    @rule(gate=st.integers(0, GATES - 1), ok=st.booleans())
    def trigger(self, gate, ok):
        for world in self.worlds:
            world.trigger(gate, ok)

    @precondition(lambda self: self.worlds[0].procs)
    @rule(pid=st.integers(0, 7))
    def interrupt(self, pid):
        for world in self.worlds:
            world.procs[pid % len(world.procs)].interrupt(("direct", pid))

    @rule(span=st.sampled_from([0, 0.25, 0.5, 1.0, 2.0]))
    def advance(self, span):
        for world in self.worlds:
            world.sim.run(until=world.sim.now + span)

    @invariant()
    def worlds_agree(self):
        first = self.worlds[0].digest()
        for world in self.worlds[1:]:
            assert world.digest() == first

    def teardown(self):
        for world in self.worlds:
            world.sim.run()
        self.worlds_agree()


TestWakeupMachine = WakeupMachine.TestCase
TestWakeupMachine.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)


# ---------------------------------------------------------------------------
# bare-delay yields
# ---------------------------------------------------------------------------


def test_bare_delays_resume_after_the_delay_with_none(sim):
    seen = []

    def worker():
        for delay in (1, 0.5, 0):
            value = yield delay
            seen.append((sim.now, value))

    sim.process(worker())
    sim.run()
    assert seen == [(1.0, None), (1.5, None), (1.5, None)]


def test_interrupt_disarms_the_pending_timer(sim):
    """A preempted sleeper that starts a new delay must not be woken by
    its old timer."""
    woke = []

    def sleeper():
        try:
            yield 2.0
        except Interrupt:
            woke.append(("interrupted", sim.now))
        yield 1.5
        woke.append(("woke", sim.now))

    proc = sim.process(sleeper())
    sim.schedule(1.0, proc.interrupt)
    sim.run()
    assert woke == [("interrupted", 1.0), ("woke", 2.5)]


@pytest.mark.parametrize("value", [-0.5, -1])
def test_negative_delay_fails_the_process(sim, value):
    def bad():
        yield value

    proc = sim.process(bad()).defuse()
    sim.run()
    assert isinstance(proc.value, SimError)
    assert "negative delay" in str(proc.value)


@pytest.mark.parametrize("value", [True, False, None, "1.0", 1j])
def test_bools_and_other_non_waitables_fail_the_process(sim, value):
    def bad():
        yield value

    proc = sim.process(bad()).defuse()
    sim.run()
    assert isinstance(proc.value, SimError)
    assert "non-waitable" in str(proc.value)
    assert sim.stats()["events_scheduled"] == 1  # the start; no timer


def test_without_fast_lane_every_seq_goes_through_schedule(monkeypatch):
    """The reference path never resumes inline: each wakeup is a scheduled
    event, so ``schedule`` calls match ``events_scheduled`` exactly."""
    calls = [0]
    schedule = Simulator.schedule

    def counting(self, *args, **kwargs):
        calls[0] += 1
        return schedule(self, *args, **kwargs)

    monkeypatch.setattr(Simulator, "schedule", counting)
    sim = Simulator(fast_lane=False)

    def worker():
        for delay in (1, 0.5, 0):
            yield delay
            value = yield sim.waitable().succeed(delay)
            assert value == delay

    sim.process(worker())
    sim.run()
    assert sim.now == 1.5
    assert calls[0] == sim.stats()["events_scheduled"] == 10  # start + 3 x (timer, hop, hop)
