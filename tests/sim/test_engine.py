"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim import (
    MS,
    US,
    Interrupt,
    SimulationError,
    Simulator,
)


def test_empty_run_leaves_time_at_zero():
    sim = Simulator()
    sim.run()
    assert sim.now == 0.0


def test_run_until_advances_time_even_with_no_events():
    sim = Simulator()
    sim.run(until=5.0)
    assert sim.now == 5.0


def test_timeout_advances_clock():
    sim = Simulator()
    seen = []

    def proc(sim):
        yield sim.timeout(3 * MS)
        seen.append(sim.now)

    sim.spawn(proc(sim))
    sim.run()
    assert seen == [3 * MS]


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_timeout_carries_value():
    sim = Simulator()
    got = []

    def proc(sim):
        got.append((yield sim.timeout(1.0, value="payload")))

    sim.spawn(proc(sim))
    sim.run()
    assert got == ["payload"]


def test_sequential_timeouts_accumulate():
    sim = Simulator()
    stamps = []

    def proc(sim):
        for _ in range(4):
            yield sim.timeout(0.25)
            stamps.append(sim.now)

    sim.spawn(proc(sim))
    sim.run()
    assert stamps == [0.25, 0.5, 0.75, 1.0]


def test_simultaneous_events_fire_in_scheduling_order():
    sim = Simulator()
    order = []

    def proc(sim, tag):
        yield sim.timeout(1.0)
        order.append(tag)

    for tag in "abc":
        sim.spawn(proc(sim, tag))
    sim.run()
    assert order == ["a", "b", "c"]


def test_process_return_value_delivered_to_waiter():
    sim = Simulator()
    results = []

    def child(sim):
        yield sim.timeout(2.0)
        return 42

    def parent(sim):
        value = yield sim.spawn(child(sim))
        results.append((sim.now, value))

    sim.spawn(parent(sim))
    sim.run()
    assert results == [(2.0, 42)]


def test_waiting_on_already_finished_process():
    sim = Simulator()
    results = []

    def child(sim):
        yield sim.timeout(1.0)
        return "done"

    def parent(sim, child_proc):
        yield sim.timeout(5.0)
        value = yield child_proc  # already processed by now
        results.append((sim.now, value))

    child_proc = sim.spawn(child(sim))
    sim.spawn(parent(sim, child_proc))
    sim.run()
    assert results == [(5.0, "done")]


def test_uncaught_exception_in_unwatched_process_propagates():
    sim = Simulator()

    def bad(sim):
        yield sim.timeout(1.0)
        raise RuntimeError("boom")

    sim.spawn(bad(sim))
    with pytest.raises(RuntimeError, match="boom"):
        sim.run()


def test_exception_propagates_to_waiting_parent():
    sim = Simulator()
    caught = []

    def bad(sim):
        yield sim.timeout(1.0)
        raise ValueError("inner")

    def parent(sim):
        try:
            yield sim.spawn(bad(sim))
        except ValueError as exc:
            caught.append(str(exc))

    sim.spawn(parent(sim))
    sim.run()
    assert caught == ["inner"]


def test_event_succeed_twice_is_error():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_fail_requires_exception_instance():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")


def test_manual_event_wakeup():
    sim = Simulator()
    gate = sim.event()
    log = []

    def waiter(sim):
        value = yield gate
        log.append((sim.now, value))

    def opener(sim):
        yield sim.timeout(7.0)
        gate.succeed("open")

    sim.spawn(waiter(sim))
    sim.spawn(opener(sim))
    sim.run()
    assert log == [(7.0, "open")]


def test_all_of_waits_for_every_event():
    sim = Simulator()
    log = []

    def proc(sim):
        values = yield sim.all_of([sim.timeout(1.0, "a"), sim.timeout(3.0, "b")])
        log.append((sim.now, values))

    sim.spawn(proc(sim))
    sim.run()
    assert log == [(3.0, ["a", "b"])]


def test_any_of_fires_on_first():
    sim = Simulator()
    log = []

    def proc(sim):
        value = yield sim.any_of([sim.timeout(5.0, "slow"), sim.timeout(2.0, "fast")])
        log.append((sim.now, value))

    sim.spawn(proc(sim))
    sim.run()
    assert log == [(2.0, "fast")]


def test_interrupt_wakes_sleeping_process():
    sim = Simulator()
    log = []

    def sleeper(sim):
        try:
            yield sim.timeout(100.0)
        except Interrupt as intr:
            log.append((sim.now, intr.cause))

    def interrupter(sim, victim):
        yield sim.timeout(4.0)
        victim.interrupt(cause="preempt")

    victim = sim.spawn(sleeper(sim))
    sim.spawn(interrupter(sim, victim))
    sim.run()
    assert log == [(4.0, "preempt")]


def test_interrupt_orders_ahead_of_same_instant_timed_work():
    # An interrupt is a priority-0 schedule: it runs before a timer that
    # was armed earlier for the same instant (lower seq, priority 1).
    sim = Simulator()
    log = []

    def sleeper(sim):
        try:
            yield sim.timeout(100.0)
        except Interrupt:
            log.append(("interrupted", sim.now))

    def interrupter(sim, victim):
        yield sim.timeout(1.0)
        victim.interrupt()

    def bystander(sim):
        yield sim.timeout(1.0)
        log.append(("bystander", sim.now))

    victim = sim.spawn(sleeper(sim))
    sim.spawn(interrupter(sim, victim))
    sim.spawn(bystander(sim))
    sim.run()
    assert log == [("interrupted", 1.0), ("bystander", 1.0)]


def test_interrupt_finished_process_rejected():
    sim = Simulator()

    def quick(sim):
        yield sim.timeout(1.0)

    proc = sim.spawn(quick(sim))
    sim.run()
    with pytest.raises(SimulationError):
        proc.interrupt()


def test_yield_non_event_is_error():
    sim = Simulator()

    def bad(sim):
        yield 42

    sim.spawn(bad(sim))
    with pytest.raises(SimulationError, match="must.*yield Event"):
        sim.run()


def test_run_until_stops_mid_simulation():
    sim = Simulator()
    log = []

    def proc(sim):
        for _ in range(10):
            yield sim.timeout(1.0)
            log.append(sim.now)

    sim.spawn(proc(sim))
    sim.run(until=4.5)
    assert log == [1.0, 2.0, 3.0, 4.0]
    assert sim.now == 4.5
    sim.run()
    assert log[-1] == 10.0


def test_run_until_boundary_is_inclusive():
    # Pinned contract (see Simulator.run docstring): an event scheduled
    # exactly at ``until`` is processed; only strictly-later events are
    # left pending. Must hold whether the next event is an immediate
    # or a timed heap entry.
    sim = Simulator()
    log = []

    def proc(sim):
        yield sim.timeout(1.0)
        log.append(("at", sim.now))
        yield sim.timeout(2.0)       # fires exactly at until=3.0
        log.append(("boundary", sim.now))
        yield sim.timeout(0.5)       # strictly after: must stay pending
        log.append(("late", sim.now))

    sim.spawn(proc(sim))
    sim.run(until=3.0)
    assert log == [("at", 1.0), ("boundary", 3.0)]
    assert sim.now == 3.0
    sim.run()
    assert log[-1] == ("late", 3.5)


def test_run_until_in_the_past_is_an_error():
    sim = Simulator()
    sim.run(until=2.0)
    with pytest.raises(ValueError, match="in the past"):
        sim.run(until=1.0)


def test_run_until_event_returns_value():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(2.5)
        return "finished"

    proc_event = sim.spawn(proc(sim))
    assert sim.run_until_event(proc_event) == "finished"
    assert sim.now == 2.5


def test_run_until_event_raises_on_failure():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1.0)
        raise KeyError("missing")

    def parent(sim):
        yield sim.spawn(proc(sim))

    parent_proc = sim.spawn(parent(sim))
    with pytest.raises(KeyError):
        sim.run_until_event(parent_proc)


def test_run_until_event_detects_drained_schedule():
    sim = Simulator()
    never = sim.event()
    with pytest.raises(SimulationError, match="drained"):
        sim.run_until_event(never)


def test_microsecond_scale_precision():
    sim = Simulator()
    stamps = []

    def proc(sim):
        yield sim.timeout(17e-9)  # a Wasm call from Table 1
        stamps.append(sim.now)
        yield sim.timeout(200 * US)  # 2021 DC RTT
        stamps.append(sim.now)

    sim.spawn(proc(sim))
    sim.run()
    assert stamps[0] == pytest.approx(17e-9)
    assert stamps[1] == pytest.approx(17e-9 + 200e-6)


def test_timeout_at_fires_at_the_absolute_instant():
    sim = Simulator()
    fired = []

    # A deadline stamped as t + d at t fires exactly at t + d when
    # slept on from a later instant, even though re-deriving it as a
    # delay, now + (when - now), rounds to a different float here.
    when = 0.28978161459048557 + 60.0

    def proc(sim):
        yield sim.timeout(1.5791639305450182)
        assert sim.now + (when - sim.now) != when
        yield sim.timeout_at(when)
        fired.append(sim.now)

    sim.spawn(proc(sim))
    sim.run()
    assert fired == [when]


def test_timeout_at_orders_short_and_long_sleeps_by_time():
    sim = Simulator()
    order = []

    def waiter(sim, when):
        yield sim.timeout_at(when)
        order.append(sim.now)

    # Sub-tick, sub-second and long sleeps, interleaved with a relative
    # timeout.
    for when in (5.0, 0.2, 0.00001, 1e-3):
        sim.spawn(waiter(sim, when))

    def relative(sim):
        yield sim.timeout(0.5)
        order.append(sim.now)

    sim.spawn(relative(sim))
    sim.run()
    assert order == [0.00001, 1e-3, 0.2, 0.5, 5.0]


def test_timeout_at_now_fires_this_instant_in_scheduling_order():
    sim = Simulator()
    order = []

    def proc(sim, tag, ev_factory):
        yield ev_factory()
        order.append((tag, sim.now))

    sim.spawn(proc(sim, "at", lambda: sim.timeout_at(sim.now)))
    sim.spawn(proc(sim, "zero", lambda: sim.timeout(0.0)))
    sim.run()
    assert order == [("at", 0.0), ("zero", 0.0)]


def test_timeout_at_in_the_past_is_an_error():
    sim = Simulator()
    sim.run(until=1.0)
    with pytest.raises(ValueError, match="past"):
        sim.timeout_at(0.5)
