"""The autoscale floor vetoes keep-alive reaps only while it holds.

``WarmPool.target_warm`` stops the idle reaper from shrinking the pool
below the floor; a vetoed reaper disarms. Lowering or lifting the floor
re-arms every vetoed reaper at that instant, so an idle pool decays to
the new floor without waiting for another release.
"""

from .test_warmpool_properties import make_pool


def two_idle_under_floor(floor=2):
    """A keep-alive-1 s pool whose two idle executors were both
    vetoed by ``target_warm=floor``; returns (sim, pool)."""
    sim, pool = make_pool(keep_alive=1.0)
    pool.target_warm = floor

    def flow():
        a = yield from pool.acquire()
        b = yield from pool.acquire()
        pool.release(a)
        pool.release(b)

    sim.run_until_event(sim.spawn(flow()))
    sim.run()  # both reapers fire and are vetoed
    assert pool.size == 2 and pool.reaped == 0
    return sim, pool


def test_lowered_floor_reaps_a_vetoed_executor():
    sim, pool = two_idle_under_floor()
    pool.target_warm = 1
    sim.run(until=sim.now + 1000.0)
    assert pool.size == 1
    assert pool.reaped == 1


def test_reap_happens_at_the_instant_the_floor_drops():
    sim, pool = two_idle_under_floor()
    dropped_at = sim.now + 3.0
    sim.run(until=dropped_at)
    pool.target_warm = None
    sim.run()
    assert pool.size == 0 and pool.reaped == 2
    assert sim.now == dropped_at


def test_raised_or_unchanged_floor_arms_nothing():
    sim, pool = two_idle_under_floor(floor=2)
    pool.target_warm = 2
    pool.target_warm = 3
    assert sim._pending == 0
    assert pool.size == 2


def test_reused_executor_keeps_its_own_keep_alive():
    """An executor re-acquired after its veto is re-armed by its next
    release; lowering the floor while it is busy leaves it alone."""
    sim, pool = two_idle_under_floor()
    released = {}

    def flow():
        executor = yield from pool.acquire()
        pool.target_warm = 0  # the idle one reaps now; the busy one waits
        yield sim.timeout(0.5)
        pool.release(executor)
        released["at"] = sim.now
        released["executor"] = executor

    sim.run_until_event(sim.spawn(flow()))
    assert pool.size == 1 and pool.reaped == 1
    sim.run()
    assert pool.size == 0 and pool.reaped == 2
    assert sim.now == released["at"] + 1.0
    assert not released["executor"].live
