"""Unit tests for the kernel's timer queue, :class:`HeapTimers`.

The queue must pop entries *exactly* in ``(fire_at, seq)`` order — any
deviation breaks the determinism trace checksums — and keep ``head`` equal
to the live minimum after every push, pop and cancel.  The last tests cancel
entries through ``Simulator.schedule``/``Simulator.cancel``.  The module
keeps its name from the calendar-queue wheel that the heap replaced.
"""

import random

import pytest

from repro.sim.kernel import HeapTimers, SimulationError, Simulator


def _entry(t, seq):
    return (t, seq, None, ())


def _drain(queue):
    out = []
    while len(queue):
        assert queue.head is not None
        out.append(queue.pop())
    assert queue.head is None
    return out


def test_push_pop_orders_by_time_then_seq():
    timers = HeapTimers()
    entries = [_entry(5.0, 2), _entry(1.0, 3), _entry(5.0, 1), _entry(0.5, 4)]
    for entry in entries:
        timers.push(entry)
    assert _drain(timers) == sorted(entries)


def test_far_future_timer_jump():
    # A lone far-future entry behind a near one becomes head once the
    # near one pops.
    timers = HeapTimers()
    near = _entry(1.5, 1)
    far = _entry(1e6, 2)
    timers.push(far)
    timers.push(near)
    assert timers.head is near
    assert timers.pop() is near
    assert timers.head is far
    assert timers.pop() is far
    assert timers.head is None


def test_in_window_push_keeps_order():
    # An entry pushed with a shorter delay than the queued ones becomes
    # the new head and drains ahead of them.
    timers = HeapTimers()
    a, b, c = _entry(1.0, 1), _entry(5.0, 2), _entry(9.0, 3)
    for entry in (a, b, c):
        timers.push(entry)
    assert timers.pop() is a
    d = _entry(2.0, 4)  # lands before b
    timers.push(d)
    assert timers.head is d
    assert _drain(timers) == [d, b, c]


def test_heap_timers_randomized_monotone_stream():
    # The kernel's usage pattern: pushes never predate the last popped
    # fire time.  `head` must always be the live minimum, and the queue
    # must drain in exact (fire_at, seq) order.
    rng = random.Random(1234)
    timers = HeapTimers()
    live = []
    popped = []
    seq = 0
    now = 0.0
    for _ in range(3000):
        if live and rng.random() < 0.45:
            entry = timers.pop()
            live.remove(entry)
            popped.append(entry)
            now = entry[0]
        else:
            seq += 1
            # Delay mix: grid-clustered, continuous and far-future.
            roll = rng.random()
            if roll < 0.5:
                delay = rng.choice((0.25, 0.5, 1.0, 2.0))
            elif roll < 0.9:
                delay = rng.uniform(0.01, 30.0)
            else:
                delay = rng.uniform(1e3, 1e5)
            entry = _entry(now + delay, seq)
            timers.push(entry)
            live.append(entry)
        assert timers.head == (min(live) if live else None)
        assert len(timers) == len(live)
    popped.extend(_drain(timers))
    assert popped == sorted(popped)


def test_heap_timers_cancel():
    timers = HeapTimers()
    a, b = _entry(1.0, 1), _entry(2.0, 2)
    timers.push(a)
    timers.push(b)
    timers.cancel(a)
    assert timers.head is b
    with pytest.raises(ValueError):
        timers.cancel(a)  # already cancelled


def test_cancel_head_mid_run_and_future():
    timers = HeapTimers()
    a, b, c, d = _entry(0.5, 1), _entry(0.6, 2), _entry(0.7, 3), _entry(50.0, 4)
    for entry in (a, b, c, d):
        timers.push(entry)
    timers.cancel(a)  # the head
    assert timers.head is b
    timers.cancel(c)  # between the head and the far entry
    timers.cancel(d)  # far future
    assert _drain(timers) == [b]


def test_cancel_missing_entry_raises():
    timers = HeapTimers()
    timers.push(_entry(1.0, 1))
    with pytest.raises(ValueError):
        timers.cancel(_entry(2.0, 2))
    with pytest.raises(ValueError):
        timers.cancel(_entry(1.0, 3))  # same fire time, not queued
    assert len(timers) == 1


def test_simulator_cancel_prevents_firing():
    sim = Simulator()
    fired = []
    keep = sim.schedule(5.0, fired.append, "keep")
    drop = sim.schedule(3.0, fired.append, "drop")
    sim.cancel(drop)
    sim.run()
    assert fired == ["keep"]
    assert sim.now == keep[0] == 5.0
    with pytest.raises(SimulationError):
        sim.cancel(drop)  # already cancelled
    with pytest.raises(SimulationError):
        sim.cancel(keep)  # already fired


def test_simulator_cancel_immediate_entry():
    sim = Simulator()
    fired = []
    entry = sim.schedule(0.0, fired.append, "immediate")
    sim.cancel(entry)
    sim.run()
    assert fired == []
