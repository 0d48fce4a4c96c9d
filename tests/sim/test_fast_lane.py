"""Fast-lane dispatcher: ordering equivalence, pooling, lazy purge, clamp.

The engine keeps two interchangeable dispatch paths — the same-time FIFO
lanes and the pure binary heap (``Simulator(fast_lane=False)``).  These
tests pin down that the two orders are *identical*, plus the supporting
machinery: entry-list pooling, lazy purge of cancelled entries, and the
``schedule_at`` float-drift clamp.
"""

import random

import pytest

from repro.sim import (
    PRIORITY_INTERRUPT,
    PRIORITY_LOW,
    SimError,
    Simulator,
    Waitable,
)
from repro.sim import engine as engine_mod


def _random_workload(sim, order, seed):
    """Schedule a randomized mix of timers, call_soons, cancels, chains."""
    rng = random.Random(seed)

    def note(tag):
        order.append((tag, sim.now))

    def chain(tag, depth):
        note(tag)
        if depth > 0:
            sim.call_soon(chain, tag + "+", depth - 1)

    handles = []
    for index in range(120):
        roll = rng.random()
        delay = rng.choice((0.0, 0.0, 0.1, 0.5, 1.0, 2.5))
        priority = rng.choice(
            (PRIORITY_INTERRUPT, engine_mod.PRIORITY_NORMAL, PRIORITY_LOW)
        )
        if roll < 0.5:
            handles.append(
                sim.schedule(delay, note, "t{}".format(index), priority=priority)
            )
        elif roll < 0.7:
            sim.schedule(delay, chain, "c{}".format(index), rng.randint(1, 3))
        elif roll < 0.85:
            waitable = Waitable(sim)
            waitable.add_callback(lambda w, i=index: note("w{}".format(i)))
            sim.schedule(delay, waitable.succeed, None)
        else:
            handles.append(
                sim.schedule(delay, note, "x{}".format(index), priority=priority)
            )
    for handle in rng.sample(handles, len(handles) // 3):
        handle.cancel()


@pytest.mark.parametrize("seed", [1, 7, 23])
def test_fast_lane_matches_heap_order(seed):
    traces = {}
    for fast in (False, True):
        sim = Simulator(fast_lane=fast)
        order = []
        _random_workload(sim, order, seed)
        sim.run()
        traces[fast] = (order, sim.now)
    assert traces[True] == traces[False]


def test_call_soon_interleaves_with_heap_entries_by_seq(sim):
    """A heap-scheduled zero-delay entry and a lane entry at the same
    (time, priority) must still run in seq order."""
    order = []

    def outer():
        sim.schedule(1.0, order.append, "heap-later")
        sim.call_soon(order.append, "lane-a")
        sim.schedule(0.0, order.append, "heap-now", priority=PRIORITY_LOW)
        sim.call_soon(order.append, "irq", priority=PRIORITY_INTERRUPT)
        sim.call_soon(order.append, "lane-b")

    sim.schedule(2.0, outer)
    sim.run()
    assert order == ["irq", "lane-a", "lane-b", "heap-now", "heap-later"]


def test_cancelled_lane_entry_skipped(sim):
    fired = []
    handle = sim.call_soon(fired.append, "a")
    sim.call_soon(fired.append, "b")
    handle.cancel()
    assert handle.cancelled
    sim.run()
    assert fired == ["b"]


def test_step_drains_lanes_and_heap_in_order(sim):
    order = []
    sim.call_soon(order.append, "soon")
    sim.schedule(1.0, order.append, "later")
    assert sim.step() and order == ["soon"]
    assert sim.step() and order == ["soon", "later"]
    assert not sim.step()


def test_lane_entry_lists_are_pooled(sim):
    """Zero-delay lane entries recycle their entry lists after dispatch."""
    done = []
    for _ in range(50):
        sim.call_soon(done.append, "x")
    sim.run()
    assert len(done) == 50
    assert sim._pool  # entries went back to the pool after dispatch
    before = len(sim._pool)
    sim.call_soon(done.append, "y")
    sim.run()
    assert len(sim._pool) == before  # reused, not grown
    stats = sim.stats()
    assert stats["pool_hits"] > 0


def test_waitable_deliveries_use_tuple_lane(sim):
    """Handle-less callback deliveries ride the delivery lane, not the pool."""
    done = []
    waitable = Waitable(sim)
    waitable.add_callback(lambda w: done.append(w))
    waitable.succeed()
    assert len(sim._dq) == 1
    sim.run()
    assert done == [waitable]
    assert not sim._dq


def test_stale_handle_cannot_cancel_recycled_entry(sim):
    """Regression: a Handle kept past dispatch must not touch the pooled
    entry list once it has been re-stamped for a different event."""
    fired = []
    stale = sim.call_soon(fired.append, "first")
    sim.run()
    assert fired == ["first"]
    # The entry list is back in the pool; the next call_soon reuses it.
    fresh = sim.call_soon(fired.append, "second")
    assert fresh._entry is stale._entry  # same recycled list object
    stale.cancel()  # must be a no-op: seq stamp no longer matches
    assert not stale.cancelled
    sim.run()
    assert fired == ["first", "second"]
    # ``cancelled`` reads never report on someone else's event: cancelling
    # the fresh entry (recycled again by now) leaves the stale handle alone.
    third = sim.call_soon(fired.append, "third")
    third.cancel()
    assert third.cancelled
    assert not stale.cancelled and not fresh.cancelled
    sim.run()
    assert fired == ["first", "second"]


def test_cancelled_heap_entries_purged_lazily():
    sim = Simulator(event_store="heap")
    handles = [sim.schedule(10.0 + i, lambda: None) for i in range(300)]
    fired = []
    sim.schedule(500.0, fired.append, "live")
    for handle in handles[:250]:
        handle.cancel()
    # The purge threshold has been crossed: the heap must have shed the
    # bulk of the cancelled entries without waiting for a run().
    assert len(sim._store.heap) <= 300 - 150
    assert sim.stats()["store_purges"] >= 1
    sim.run()
    assert fired == ["live"]


def test_schedule_at_clamps_float_drift(sim):
    """when == now 'after float accumulation' must not raise."""
    sim.schedule(0.1, lambda: None)
    sim.run()
    sim.schedule(0.2, lambda: None)
    sim.run()
    # now is 0.1 + 0.2 = 0.30000000000000004; the mathematically equal
    # target 0.3 lands a hair in the past.
    assert sim.now == 0.1 + 0.2
    fired = []
    sim.schedule_at(0.3, fired.append, "clamped")
    sim.run()
    assert fired == ["clamped"]
    assert sim.now == 0.1 + 0.2


def test_schedule_at_still_rejects_real_past(sim):
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimError):
        sim.schedule_at(4.5, lambda: None)


def test_default_fast_lane_flag_controls_new_simulators(monkeypatch):
    monkeypatch.setattr(engine_mod, "DEFAULT_FAST_LANE", False)
    assert not Simulator()._fast
    monkeypatch.setattr(engine_mod, "DEFAULT_FAST_LANE", True)
    assert Simulator()._fast
    assert not Simulator(fast_lane=False)._fast


def test_default_event_store_flag_controls_new_simulators(monkeypatch):
    monkeypatch.setattr(engine_mod, "DEFAULT_EVENT_STORE", "heap")
    assert isinstance(Simulator()._store, engine_mod.HeapStore)
    monkeypatch.setattr(engine_mod, "DEFAULT_EVENT_STORE", "calendar")
    assert isinstance(Simulator()._store, engine_mod.CalendarQueue)
    assert isinstance(
        Simulator(event_store="heap")._store, engine_mod.HeapStore
    )
    with pytest.raises(SimError):
        Simulator(event_store="splay")
