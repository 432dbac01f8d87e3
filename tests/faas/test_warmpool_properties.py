"""Property tests for WarmPool under random schedules.

Random (arrival-gap, hold-time) schedules — Hypothesis-drawn, replayed
through ``repro.sim.rng``-style determinism — drive acquire/release
traffic through a pool and check the accounting invariants that the
autoscale controller now depends on:

* **no double-grant**: an executor is never handed to two invocations
  at once;
* **FIFO waiter drain**: with ``max_executors=1`` the grant order is
  the arrival order;
* **conservation**: ``cold_starts + warm_hits`` equals completed
  acquires (queued grants are warm hits);
* **gauge honesty**: the live-size gauge always equals
  ``len(executors) + provisioning`` and never drifts from ``size``.

The keep-alive tests at the end pin the one-reaper-per-executor
reaper: reap instants are exactly last release + keep-alive, and
release churn never piles up pending reapers.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import build_cluster, cpu_task
from repro.faas import MICROVM, WarmPool
from repro.faas.platforms import Executor
from repro.sim import Simulator


def first_fit_placer(topo):
    def place(resources, platform, preferred_node=None):
        candidates = topo.live_nodes()
        if preferred_node is not None:
            candidates = ([n for n in candidates
                           if n.node_id == preferred_node]
                          + [n for n in candidates
                             if n.node_id != preferred_node])
        for node in candidates:
            if node.has_device(platform.device_kind) \
                    and node.can_fit(resources):
                return node
        return None
    return place


def make_pool(keep_alive=5.0, max_executors=None, nodes=4):
    sim = Simulator()
    topo = build_cluster(sim, racks=1, nodes_per_rack=nodes,
                         gpu_nodes_per_rack=0)
    pool = WarmPool(sim, "fn/impl", MICROVM,
                    cpu_task(cpus=1, memory_gb=1),
                    placer=first_fit_placer(topo),
                    keep_alive=keep_alive,
                    max_executors=max_executors)
    return sim, pool


#: One request: wait ``gap`` seconds after the previous arrival, hold
#: the executor ``hold`` seconds. Granularity of 10 ms keeps schedules
#: readable in failure reports.
SCHEDULES = st.lists(
    st.tuples(st.integers(0, 300), st.integers(1, 150)),
    min_size=1, max_size=12,
).map(lambda raw: [(gap / 100.0, hold / 100.0) for gap, hold in raw])


def run_schedule(schedule, keep_alive=5.0, max_executors=None):
    """Drive the schedule; returns (pool, grant_log, violations)."""
    sim, pool = make_pool(keep_alive=keep_alive,
                          max_executors=max_executors)
    granted_now = set()
    violations = []
    grant_order = []

    def check_gauge(where):
        expected = len(pool._executors) + pool._provisioning
        if pool._live_gauge.level != expected:
            violations.append(
                f"{where}: gauge {pool._live_gauge.level} != "
                f"executors+provisioning {expected}")
        if pool.size > len(pool._executors):
            violations.append(f"{where}: size above roster")

    def request(i, hold):
        def flow():
            executor = yield from pool.acquire()
            if id(executor) in granted_now:
                violations.append(f"req {i}: double-granted executor")
            if not executor.busy:
                violations.append(f"req {i}: granted executor not busy")
            granted_now.add(id(executor))
            grant_order.append(i)
            check_gauge(f"req {i} after acquire")
            yield sim.timeout(hold)
            granted_now.discard(id(executor))
            pool.release(executor)
            check_gauge(f"req {i} after release")
        return flow()

    def arrivals():
        for i, (gap, hold) in enumerate(schedule):
            if gap:
                yield sim.timeout(gap)
            sim.spawn(request(i, hold), name=f"req-{i}")

    sim.spawn(arrivals(), name="arrivals")
    sim.run()
    check_gauge("end of run")
    return pool, grant_order, violations


@settings(max_examples=30, deadline=None)
@given(schedule=SCHEDULES)
def test_no_double_grant_and_gauge_matches(schedule):
    pool, grants, violations = run_schedule(schedule)
    assert violations == []
    assert len(grants) == len(schedule)


@settings(max_examples=30, deadline=None)
@given(schedule=SCHEDULES)
def test_cold_plus_warm_equals_completed_acquires(schedule):
    pool, grants, violations = run_schedule(schedule)
    assert violations == []
    assert pool.cold_starts + pool.warm_hits == len(schedule)
    # Everything was eventually reaped: scale-to-zero invariant.
    assert pool.size == 0
    assert pool.provisioning == 0


@settings(max_examples=30, deadline=None)
@given(schedule=SCHEDULES)
def test_single_executor_pool_drains_waiters_fifo(schedule):
    """With a one-executor cap, requests queue; grants must come back
    in arrival order (the waiter list is FIFO)."""
    pool, grants, violations = run_schedule(schedule, max_executors=1)
    assert violations == []
    assert grants == sorted(grants)
    assert pool.peak_size == 1
    assert pool.cold_starts + pool.warm_hits == len(schedule)


def test_release_race_cannot_steal_from_queued_waiter():
    """Regression for the ROADMAP non-FIFO grant bug: requests 0 and 1
    arrive together (1 queues behind the single-executor cap), and
    request 2 arrives in the same instant request 0 releases. Before
    the reserved hand-off, request 2 saw the sandbox idle between the
    release and the waiter's wake-up and was granted ``[0, 2, 1]``;
    the reservation makes the grant order the arrival order."""
    pool, grants, violations = run_schedule(
        [(0.0, 0.01), (0.0, 0.01), (0.16, 0.01)], max_executors=1)
    assert violations == []
    assert grants == [0, 1, 2]


def test_stale_handoff_requeues_at_front():
    """A waiter whose reserved hand-off goes stale (the node crashed
    between the hand-off and its wake-up) must not lose its queue
    position: it re-enters at the *front*, so a younger queued request
    cannot pass it. Pre-fix, the stale waiter re-queued at the back
    and the grants came out ``[0, 2, 1]``."""
    sim, pool = make_pool(keep_alive=0.05, max_executors=1, nodes=2)
    grants = []
    held = []

    def request(i, hold, release=True):
        def flow():
            ex = yield from pool.acquire()
            grants.append(i)
            held.append(ex)
            if release:
                yield sim.timeout(hold)
                pool.release(ex)
        return flow()

    def driver():
        # Request 0 holds the only executor; 1 and 2 queue in order.
        yield sim.timeout(0.3)
        ex = held[0]
        # Release hands (reserves) the sandbox to request 1, and its
        # node dies in the same instant — before request 1 resumes.
        pool.release(ex)
        ex.node.crash()
        # The stale sandbox reaps after 0.05 s; then a prewarm lands a
        # fresh one on the surviving node and feeds the queue front.
        yield sim.timeout(0.2)
        yield from pool.prewarm()

    sim.spawn(request(0, 0.0, release=False), name="req-0")
    sim.spawn(request(1, 0.01), name="req-1")  # queues
    sim.spawn(request(2, 0.01), name="req-2")  # queues behind 1
    sim.spawn(driver(), name="driver")
    sim.run()
    assert grants == [0, 1, 2]


@settings(max_examples=20, deadline=None)
@given(schedule=SCHEDULES, cap=st.integers(1, 3))
def test_capped_pool_never_exceeds_cap(schedule, cap):
    pool, grants, violations = run_schedule(schedule, max_executors=cap)
    assert violations == []
    assert pool.peak_size <= cap


# -- gauge-drift regression (the audited provision/reap/fail paths) -------

def test_gauge_counts_inflight_provisioning():
    """The size gauge includes cold starts in flight: their resources
    are already allocated, so a controller reading the gauge mid-cold
    must see them (this is the drift the audit fixed)."""
    sim, pool = make_pool()
    seen = []

    def probe():
        # Sample mid-provision: the MICROVM cold start takes 150 ms.
        yield sim.timeout(0.05)
        seen.append((pool._live_gauge.level, pool.size,
                     pool.provisioning))

    def flow():
        executor = yield from pool.acquire()
        pool.release(executor)

    sim.spawn(probe())
    sim.spawn(flow())
    sim.run()
    assert seen == [(1, 0, 1)]  # gauge=1 while live executors are 0
    assert pool.peak_size == 1


def test_gauge_and_peak_agree_after_failed_placement_then_queue():
    """A request that queues at the cap never bumps the gauge; the
    eventual hand-off keeps gauge == roster."""
    sim, pool = make_pool(max_executors=1)
    order = []

    def request(i, hold):
        def flow():
            executor = yield from pool.acquire()
            order.append(i)
            yield sim.timeout(hold)
            pool.release(executor)
        return flow()

    sim.spawn(request(0, 0.2))
    sim.spawn(request(1, 0.1))
    sim.run()
    assert order == [0, 1]
    assert pool.queue_waits == 1
    assert pool.peak_size == 1
    assert pool._live_gauge.peak == 1
    assert pool._live_gauge.level == 0  # reaped back to zero


def test_gauge_prunes_executors_reaped_by_shrink():
    sim, pool = make_pool(keep_alive=100.0)

    def flow():
        executors = []
        for _ in range(3):
            executors.append((yield from pool.acquire()))
        for executor in executors:
            pool.release(executor)
        assert pool.size == 3
        assert pool.shrink(2) == 2
        assert pool.size == 1
        assert pool._live_gauge.level == 1
        assert len(pool._executors) == 1

    sim.run_until_event(sim.spawn(flow()))


def test_prewarm_lands_idle_and_counts_separately():
    """A prewarmed sandbox is not a cold start: it lands idle, serves
    the next acquire as a warm hit, and is tallied under
    ``prewarmed``."""
    sim, pool = make_pool(keep_alive=50.0)

    def flow():
        executor = yield from pool.prewarm()
        assert executor is not None
        assert executor.prewarmed
        assert not executor.busy
        assert pool.prewarmed == 1
        assert pool.cold_starts == 0
        granted = yield from pool.acquire()
        assert granted is executor
        assert pool.warm_hits == 1
        assert pool.cold_starts == 0
        pool.release(granted)

    sim.run_until_event(sim.spawn(flow()))


def test_prewarm_respects_cap_and_feeds_waiters():
    sim, pool = make_pool(max_executors=1)

    def flow():
        first = yield from pool.prewarm()
        assert first is not None
        second = yield from pool.prewarm()
        assert second is None  # at cap
        assert pool.metrics.counter("warmpool.prewarm_skipped",
                                    pool="fn/impl").value == 1

    sim.run_until_event(sim.spawn(flow()))
    sim.run()  # drain: the keep-alive reaper fires
    assert pool.size == 0


def test_keep_alive_reaper_respects_autoscale_floor():
    sim, pool = make_pool(keep_alive=1.0)
    pool.target_warm = 1

    def flow():
        executor = yield from pool.acquire()
        pool.release(executor)

    sim.run_until_event(sim.spawn(flow()))
    sim.run()  # let the reaper fire
    assert pool.size == 1  # floor vetoed the reap
    pool.target_warm = None
    assert pool.shrink(1) == 1
    assert pool.size == 0


def test_set_keep_alive_validates_and_applies_to_new_reapers():
    sim, pool = make_pool(keep_alive=10.0)
    with pytest.raises(ValueError):
        pool.set_keep_alive(-1.0)
    pool.set_keep_alive(0.5)

    def flow():
        executor = yield from pool.acquire()
        pool.release(executor)

    sim.run_until_event(sim.spawn(flow()))
    sim.run()
    # Reaped after the *new* 0.5 s window, not the constructor's 10 s.
    assert pool.size == 0
    assert sim.now < 5.0


def record_shutdowns(monkeypatch, sim):
    """Log ``(sim.now, node_id)`` for every executor shutdown."""
    log = []
    shutdown = Executor.shutdown

    def logged(executor):
        log.append((sim.now, executor.node.node_id))
        shutdown(executor)

    monkeypatch.setattr(Executor, "shutdown", logged)
    return log


def test_shrunk_keep_alive_reaps_at_release_plus_new_window(monkeypatch):
    """A reaper armed under a 10 s window must not keep a sandbox that
    is released again after ``set_keep_alive(0.5)`` alive until the
    old wake: it is reaped at that release + 0.5 s."""
    sim, pool = make_pool(keep_alive=10.0)
    reaps = record_shutdowns(monkeypatch, sim)
    released = []

    def flow():
        executor = yield from pool.acquire()
        yield sim.timeout(0.25)
        pool.release(executor)  # arms a reaper for +10 s
        yield sim.timeout(1.0)
        again = yield from pool.acquire()
        assert again is executor
        pool.set_keep_alive(0.5)
        yield sim.timeout(0.25)
        pool.release(executor)
        released.append(sim.now)

    sim.run_until_event(sim.spawn(flow()))
    sim.run()
    assert reaps == [(released[0] + 0.5, reaps[0][1])]


def test_release_churn_keeps_one_pending_reaper_per_executor():
    """1,000 acquire/release cycles on one sandbox leave at most one
    pending reaper, and the sandbox is still reaped exactly at its last
    release + keep-alive."""
    sim, pool = make_pool(keep_alive=5.0)
    released = []

    def flow():
        for _ in range(1000):
            executor = yield from pool.acquire()
            yield sim.timeout(0.001)
            pool.release(executor)
        released.append(sim.now)

    sim.run_until_event(sim.spawn(flow()))
    assert pool.size == 1
    assert sim._pending <= pool.size
    sim.run()
    assert pool.size == 0
    assert sim.now == released[0] + 5.0


def test_floor_veto_and_reap_times_follow_each_release(monkeypatch):
    """Two sandboxes released 0.25 s apart under a ``target_warm`` of
    1: the first is reaped at its release + 1 s, the floor vetoes the
    second; once the floor is lifted, the survivor is reaped at its
    next release + 1 s."""
    sim, pool = make_pool(keep_alive=1.0)
    pool.target_warm = 1
    reaps = record_shutdowns(monkeypatch, sim)
    released = {}

    def flow():
        a = yield from pool.acquire()
        b = yield from pool.acquire()
        pool.release(a)
        released["a"] = (sim.now, a.node.node_id)
        yield sim.timeout(0.25)
        pool.release(b)
        yield sim.timeout(2.0)
        assert pool.size == 1 and b.live  # vetoed by the floor
        c = yield from pool.acquire()
        assert c is b
        pool.target_warm = None
        yield sim.timeout(0.5)
        pool.release(c)
        released["c"] = (sim.now, c.node.node_id)

    sim.run_until_event(sim.spawn(flow()))
    sim.run()
    assert reaps == [(released["a"][0] + 1.0, released["a"][1]),
                     (released["c"][0] + 1.0, released["c"][1])]


def test_stale_handoff_sandbox_reaps_one_window_after_the_crash(
        monkeypatch):
    """The stale-reservation path re-arms the reaper when the waiter
    finds its hand-off dead: the stranded sandbox is reaped one window
    after that instant, and the prewarmed replacement one window after
    its last release."""
    sim, pool = make_pool(keep_alive=0.05, max_executors=1, nodes=2)
    reaps = record_shutdowns(monkeypatch, sim)
    held = []
    released = []

    def request(hold, release=True):
        ex = yield from pool.acquire()
        held.append(ex)
        if release:
            yield sim.timeout(hold)
            pool.release(ex)
            released.append(sim.now)

    def driver():
        yield sim.timeout(0.3)
        stale = held[0]
        pool.release(stale)  # reserved for request 1 ...
        stale.node.crash()   # ... whose node dies in the same instant
        yield sim.timeout(0.2)
        yield from pool.prewarm()

    sim.spawn(request(0.0, release=False))
    sim.spawn(request(0.01))
    sim.spawn(request(0.01))
    sim.spawn(driver())
    sim.run()
    stale_node = held[0].node.node_id
    fresh_node = held[1].node.node_id
    assert stale_node != fresh_node
    assert reaps == [(0.3 + 0.05, stale_node),
                     (released[-1] + 0.05, fresh_node)]
