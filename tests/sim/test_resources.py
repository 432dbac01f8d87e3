"""Unit tests for Resource, Container, and Store."""

import pytest

from repro.sim import Container, Resource, Simulator, Store


# ---------------------------------------------------------------- Resource
def test_resource_grants_up_to_capacity_immediately():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    a = res.acquire()
    b = res.acquire()
    assert a.triggered and b.triggered
    assert res.in_use == 2


def test_resource_queues_beyond_capacity():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    res.acquire()
    second = res.acquire()
    assert not second.triggered
    assert res.queue_length == 1
    res.release()
    assert second.triggered
    assert res.in_use == 1


def test_resource_fifo_fairness():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def worker(sim, tag, hold):
        yield res.acquire()
        order.append(tag)
        yield sim.timeout(hold)
        res.release()

    for i in range(5):
        sim.spawn(worker(sim, i, hold=1.0))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_try_acquire_takes_a_free_slot_without_an_event():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    seq = sim._seq
    assert res.try_acquire()
    assert res.try_acquire()
    assert sim._seq == seq  # nothing was scheduled
    assert res.in_use == 2
    assert not res.try_acquire()  # full: nothing changes
    assert res.in_use == 2 and res.queue_length == 0
    res.release()
    assert res.in_use == 1


def test_try_acquire_never_barges_past_a_queued_waiter():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    assert res.try_acquire()
    waiter = res.acquire()
    assert not waiter.triggered
    # Capacity grows while the waiter is still queued: a free slot now
    # exists, but it belongs to the waiter, not to a synchronous grab.
    res.capacity = 2
    assert not res.try_acquire()
    assert res.in_use == 1 and res.queue_length == 1
    res.release()  # the held slot passes straight to the waiter
    assert waiter.triggered
    assert res.queue_length == 0
    assert res.try_acquire()  # queue empty: the spare slot is free
    assert res.in_use == 2


def test_resource_release_when_idle_is_error():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    with pytest.raises(RuntimeError):
        res.release()


def test_resource_capacity_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)


def test_resource_models_queueing_delay():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    finish_times = []

    def job(sim):
        yield res.acquire()
        yield sim.timeout(2.0)
        res.release()
        finish_times.append(sim.now)

    for _ in range(3):
        sim.spawn(job(sim))
    sim.run()
    assert finish_times == [2.0, 4.0, 6.0]


# --------------------------------------------------------------- Container
def test_container_put_take():
    sim = Simulator()
    tank = Container(sim, capacity=100.0, initial=10.0)
    got = []

    def taker(sim):
        amount = yield tank.take(5.0)
        got.append(amount)

    sim.spawn(taker(sim))
    sim.run()
    assert got == [5.0]
    assert tank.level == 5.0


def test_container_blocks_until_refilled():
    sim = Simulator()
    tank = Container(sim, capacity=10.0, initial=0.0)
    times = []

    def taker(sim):
        yield tank.take(4.0)
        times.append(sim.now)

    def filler(sim):
        yield sim.timeout(3.0)
        tank.put(4.0)

    sim.spawn(taker(sim))
    sim.spawn(filler(sim))
    sim.run()
    assert times == [3.0]


def test_container_overflow_rejected():
    sim = Simulator()
    tank = Container(sim, capacity=10.0, initial=8.0)
    with pytest.raises(ValueError):
        tank.put(5.0)


def test_container_take_larger_than_capacity_rejected():
    sim = Simulator()
    tank = Container(sim, capacity=10.0)
    with pytest.raises(ValueError):
        tank.take(11.0)


def test_container_fifo_ordering_of_takers():
    sim = Simulator()
    tank = Container(sim, capacity=100.0, initial=0.0)
    served = []

    def taker(sim, tag, amount):
        yield tank.take(amount)
        served.append(tag)

    sim.spawn(taker(sim, "first-big", 10.0))
    sim.spawn(taker(sim, "second-small", 1.0))

    def filler(sim):
        yield sim.timeout(1.0)
        tank.put(1.0)  # not enough for the head-of-line taker
        yield sim.timeout(1.0)
        assert served == []  # FIFO: small taker cannot jump the queue
        tank.put(9.0)  # serves the big taker
        yield sim.timeout(1.0)
        tank.put(1.0)  # serves the small taker

    sim.spawn(filler(sim))
    sim.run()
    # Head-of-line blocking is intentional: FIFO, not best-fit.
    assert served == ["first-big", "second-small"]


# ------------------------------------------------------------------- Store
def test_store_put_then_get():
    sim = Simulator()
    inbox = Store(sim)
    inbox.put("msg")
    got = []

    def getter(sim):
        got.append((yield inbox.get()))

    sim.spawn(getter(sim))
    sim.run()
    assert got == ["msg"]


def test_store_get_blocks_until_put():
    sim = Simulator()
    inbox = Store(sim)
    log = []

    def consumer(sim):
        item = yield inbox.get()
        log.append((sim.now, item))

    def producer(sim):
        yield sim.timeout(2.0)
        inbox.put("late")

    sim.spawn(consumer(sim))
    sim.spawn(producer(sim))
    sim.run()
    assert log == [(2.0, "late")]


def test_store_preserves_fifo_order():
    sim = Simulator()
    inbox = Store(sim)
    for i in range(5):
        inbox.put(i)
    out = []

    def drain(sim):
        for _ in range(5):
            out.append((yield inbox.get()))

    sim.spawn(drain(sim))
    sim.run()
    assert out == [0, 1, 2, 3, 4]


def test_store_try_get_nonblocking():
    sim = Simulator()
    inbox = Store(sim)
    assert inbox.try_get() is None
    inbox.put("x")
    assert inbox.try_get() == "x"
    assert len(inbox) == 0


def test_store_multiple_blocked_getters_served_fifo():
    sim = Simulator()
    inbox = Store(sim)
    served = []

    def getter(sim, tag):
        item = yield inbox.get()
        served.append((tag, item))

    sim.spawn(getter(sim, "g0"))
    sim.spawn(getter(sim, "g1"))

    def producer(sim):
        yield sim.timeout(1.0)
        inbox.put("a")
        inbox.put("b")

    sim.spawn(producer(sim))
    sim.run()
    assert served == [("g0", "a"), ("g1", "b")]
