"""Differential tests: the fast engine against the pre-refactor engine.

The two-store schedule (same-instant deque plus one heap) and the
counting ``AllOf`` join are pure speed refactors — every observable
ordering must match the pre-refactor engine. These tests replay a
pinned random workload and require its event trace to hash to the
digest the pre-refactor engine produced (the two engines were checked
equal on it before the old one was deleted), plus pin the counting
join's semantics directly.
"""

import hashlib

from repro.sim import Simulator
from repro.sim.rng import RandomStream

#: Delay menu: zero-delay immediates, sub-tick and sub-second sleeps,
#: sleeps just past and far beyond ~0.4 s, and multiples of a shared
#: 100 µs tick so that timers started together tie on time and order
#: by seq alone. The tick and the ~0.4 s span are fixed literals: the
#: pinned digests below were taken with exactly this menu.
_TICK = 1e-4
_SPAN = _TICK * 4096

#: sha256 of ``repr`` of each workload's trace on the pre-refactor
#: engine.
WORKLOAD_DIGEST = \
    "9d088186c69b6357345ff7887100e87b9b62dff412932f3c24236e7764e7988b"
STAGED_DIGEST = \
    "58c46c850b48d3f47b295a4d02dbec922ba2c3fac69e4d395f308b836b25b34c"


def _sha256(trace):
    return hashlib.sha256(repr(trace).encode()).hexdigest()


def _pinned_delays(count):
    rng = RandomStream(2026, "engine-differential")
    kinds = (
        lambda: 0.0,                                  # immediate
        lambda: rng.uniform(0.0, _TICK),              # sub-tick sleep
        lambda: rng.uniform(0.0, _SPAN),              # sub-second sleep
        lambda: _SPAN + rng.uniform(0.0, 5.0),        # just past ~0.4 s
        lambda: rng.uniform(50.0, 500.0),             # long sleep
        lambda: _TICK * int(rng.uniform(1, 8)),       # shared-tick ties
    )
    return [kinds[int(rng.uniform(0, len(kinds)))]() for _ in range(count)]


def _workload(delays):
    """Run a mixed-delay workload; return the observable event trace."""
    sim = Simulator()
    log = []

    def hopper(tag, naps):
        for d in naps:
            yield sim.timeout(d)
            log.append((tag, repr(sim.now)))

    def joiner(tag, naps):
        waits = [sim.spawn(hopper(f"{tag}.c{i}", [d]))
                 for i, d in enumerate(naps)]
        values = yield sim.all_of(waits)
        log.append((tag, repr(sim.now), len(values)))

    chunks = [delays[i::7] for i in range(7)]
    for i in range(5):
        sim.spawn(hopper(f"h{i}", chunks[i]))
    sim.spawn(joiner("j0", chunks[5]))
    sim.spawn(joiner("j1", chunks[6]))
    sim.run()
    return log, repr(sim.now), sim._seq


def test_fast_engine_matches_pinned_ordering():
    assert _sha256(_workload(_pinned_delays(400))) == WORKLOAD_DIGEST


def test_fast_engine_matches_pinned_ordering_under_run_until():
    delays = _pinned_delays(150)

    def staged():
        sim = Simulator()
        log = []

        def proc(tag, naps):
            for d in naps:
                yield sim.timeout(d)
                log.append((tag, repr(sim.now)))

        for i in range(3):
            sim.spawn(proc(f"p{i}", delays[i::3]))
        # Stop mid-run with short and long sleeps still pending, then
        # drain: resuming across the boundary must not reorder anything.
        sim.run(until=_SPAN / 2)
        log.append(("cut", repr(sim.now)))
        sim.run()
        return log, repr(sim.now)

    assert _sha256(staged()) == STAGED_DIGEST


# -- AllOf counting join -------------------------------------------------
def test_all_of_values_follow_list_order_not_completion_order():
    sim = Simulator()
    out = []

    def proc():
        first = sim.timeout(3.0, value="slow")
        second = sim.timeout(1.0, value="fast")
        values = yield sim.all_of([first, second])
        out.append(values)

    sim.spawn(proc())
    sim.run()
    assert out == [["slow", "fast"]]


def test_all_of_with_already_processed_children():
    sim = Simulator()
    out = []

    def proc():
        done = sim.timeout(1.0, value="early")
        yield sim.timeout(2.0)      # `done` fires and is processed
        pending = sim.timeout(1.0, value="late")
        values = yield sim.all_of([done, pending])
        out.append((values, repr(sim.now)))

    sim.spawn(proc())
    sim.run()
    assert out == [(["early", "late"], repr(3.0))]


def test_all_of_empty_list_fires_immediately():
    sim = Simulator()
    out = []

    def proc():
        values = yield sim.all_of([])
        out.append((values, sim.now))

    sim.spawn(proc())
    sim.run()
    assert out == [([], 0.0)]


def test_all_of_duplicate_children_count_once_each():
    # The counting join decrements once per registered callback; a
    # duplicated child appears twice in the list and must be counted
    # twice, not collapse the join early.
    sim = Simulator()
    out = []

    def proc():
        shared = sim.timeout(1.0, value="x")
        values = yield sim.all_of([shared, shared, sim.timeout(2.0, value="y")])
        out.append((values, repr(sim.now)))

    sim.spawn(proc())
    sim.run()
    assert out == [(["x", "x", "y"], repr(2.0))]


def test_all_of_fails_fast_on_child_failure():
    sim = Simulator()
    out = []

    def failing():
        yield sim.timeout(1.0)
        raise RuntimeError("child boom")

    def proc():
        kids = [sim.spawn(failing()), sim.timeout(100.0)]
        try:
            yield sim.all_of(kids)
        except RuntimeError as exc:
            out.append((str(exc), repr(sim.now)))

    sim.spawn(proc())
    # The join fails at t=1 and its waiter absorbs the exception; the
    # still-pending timeout then drains with no waiters, so the run
    # itself completes cleanly.
    sim.run()
    assert out == [("child boom", repr(1.0))]
