"""``run_until_event`` drains inline exactly as stepping would.

The reference below is the step-at-a-time loop: check the event, then
a drained schedule, then ``peek() > limit``, then ``step()``. The
inline drain must stop at the same event, leave the same schedule and
clock, and raise the same errors, on random schedules of immediate,
tied and delayed timeouts.
"""

import random

import pytest

from repro.sim import Simulator
from repro.sim.engine import SimulationError


def reference_run_until_event(sim, event, limit=None):
    while not event.processed:
        if not sim._pending:
            raise SimulationError(f"schedule drained before {event!r} fired")
        if limit is not None and sim.peek() > limit:
            raise SimulationError(f"{event!r} did not fire before t={limit}")
        sim.step()
    if not event.ok:
        raise event.value
    return event.value


def scenario(seed, run_until_event):
    """Spawn random sleepers, then run to random targets and limits;
    returns every observable outcome."""
    rnd = random.Random(seed)
    sim = Simulator()
    log = []

    def sleeper(i, delays):
        for delay in delays:
            yield sim.timeout(delay)
            log.append((i, sim.now))
        return i

    procs = [sim.spawn(sleeper(i, [rnd.choice((0.0, 0.0, 0.5, 1.0, 2.5))
                                   for _ in range(rnd.randint(0, 5))]))
             for i in range(rnd.randint(0, 6))]
    outcomes = []
    for _ in range(rnd.randint(1, 4)):
        target = rnd.choice(procs + [sim.event()])
        limit = rnd.choice((None, None, 0.0, 0.5, 1.0, 3.0,
                            max(sim.now - 0.1, 0.0)))
        try:
            value = run_until_event(sim, target, limit)
            outcomes.append(("ok", value))
        except SimulationError as exc:
            outcomes.append(("error", str(exc).rsplit(" ", 1)[-1]))
        outcomes.append((sim.now, sim._pending))
    return outcomes, log


@pytest.mark.parametrize("block", range(4))
def test_inline_drain_matches_stepping(block):
    for seed in range(block * 250, (block + 1) * 250):
        inline = scenario(seed, lambda sim, ev, limit:
                          sim.run_until_event(ev, limit=limit))
        assert inline == scenario(seed, reference_run_until_event), seed


def test_a_limit_in_the_past_raises_before_an_immediate_head():
    sim = Simulator()
    sim.run(until=1.0)
    sim.event().succeed()  # an immediate entry at t=1.0
    target = sim.event()
    with pytest.raises(SimulationError, match="did not fire before t=0.5"):
        sim.run_until_event(target, limit=0.5)
    assert sim._pending == 1

