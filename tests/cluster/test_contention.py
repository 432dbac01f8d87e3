"""Tests for NIC bandwidth contention."""

import pytest

from repro.cluster import (
    DC_2021,
    Network,
    build_cluster,
    cpu_task,
    server_node,
)
from repro.core import FunctionImpl, PCSICloud
from repro.core.retry import RetryPolicy
from repro.faas import WASM
from repro.sim import MS, Simulator
from repro.sim.deadline import DeadlineExceededError


def make_net():
    sim = Simulator()
    topo = build_cluster(sim, racks=2, nodes_per_rack=2,
                         gpu_nodes_per_rack=0)
    net = Network(sim, topo, DC_2021)
    return sim, net

# 12.5 MB takes 10 ms of wire time at 10 Gb/s.
BIG = 12_500_000


def test_single_transfer_unchanged_by_contention_model():
    """No contention -> same latency as the closed-form model."""
    sim, net = make_net()

    def flow():
        yield from net.transfer("rack0-n0", "rack1-n0", BIG)
    sim.run_until_event(sim.spawn(flow()))
    assert sim.now == pytest.approx(
        net.one_way_delay("rack0-n0", "rack1-n0", BIG))


def test_concurrent_sends_from_one_node_serialize():
    """Two large transfers sharing one NIC take ~2x the wire time."""
    sim, net = make_net()
    done = []

    def sender(tag):
        yield from net.transfer("rack0-n0", "rack1-n0", BIG)
        done.append((tag, sim.now))

    sim.spawn(sender("a"))
    sim.spawn(sender("b"))
    sim.run()
    # First completes after ~10ms wire + latency; second queued behind
    # the first's wire time.
    assert done[0][1] == pytest.approx(10.105 * MS, rel=0.01)
    assert done[1][1] == pytest.approx(20.105 * MS, rel=0.01)


def test_sends_from_different_nodes_do_not_contend():
    sim, net = make_net()
    done = []

    def sender(src):
        yield from net.transfer(src, "rack1-n0", BIG)
        done.append(sim.now)

    sim.spawn(sender("rack0-n0"))
    sim.spawn(sender("rack0-n1"))
    sim.run()
    assert done[0] == pytest.approx(done[1])


def test_small_control_messages_barely_queue():
    """Tiny messages have microsecond wire times: contention is
    negligible, matching the paper's fine-grained-ops focus."""
    sim, net = make_net()
    done = []

    def sender(i):
        yield from net.transfer("rack0-n0", "rack1-n0", 64)
        done.append(sim.now)

    for i in range(10):
        sim.spawn(sender(i))
    sim.run()
    # All ten finish within a whisker of the single-message latency.
    assert max(done) < 1.05 * net.one_way_delay("rack0-n0", "rack1-n0",
                                                64) + 10 * 64 / 1.25e9


def test_local_copies_skip_the_nic():
    sim, net = make_net()
    done = []

    def sender(i):
        yield from net.transfer("rack0-n0", "rack0-n0", BIG)
        done.append(sim.now)

    sim.spawn(sender(0))
    sim.spawn(sender(1))
    sim.run()
    assert done[0] == pytest.approx(done[1])  # no serialization


def test_free_nic_is_granted_without_a_grant_event():
    """An uncontended transfer takes the link synchronously and the
    link frees itself at the end of the wire time: one timed event at
    the arrival, no grant or release event."""
    sim, net = make_net()

    def flow():
        yield from net.transfer("rack0-n0", "rack1-n0", BIG)

    proc = sim.spawn(flow())
    seq = sim._seq
    sim.run_until_event(proc)
    # The process's init kick is already counted in ``seq``; the
    # transfer adds its one timeout and the process's completion.
    assert sim._seq - seq == 2
    assert net._egress_link("rack0-n0").in_use == 0


@pytest.mark.parametrize("senders, events", [(2, 8), (5, 23)])
def test_contended_nic_serializes_without_extra_events(senders, events):
    """Concurrent senders on one NIC finish one wire time apart, and a
    queued transfer costs three events (wake, grant, arrival): never
    more than the two-timeout model's grant, wire and propagation."""
    sim, net = make_net()
    done = []

    def sender():
        yield from net.transfer("rack0-n0", "rack1-n0", BIG)
        done.append(sim.now)

    seq = sim._seq
    for _ in range(senders):
        sim.spawn(sender())
    sim.run()
    assert [repr(t) for t in done] == [
        "0.010105", "0.020105", "0.030105", "0.040105",
        "0.050105000000000004"][:senders]
    # Per sender an init kick and a completion; the first transfer is
    # one timeout, each queued one three events.
    assert sim._seq - seq == events == 2 * senders + 1 + 3 * (senders - 1)
    link = net._egress_link("rack0-n0")
    assert link.in_use == 0 and link.queue_length == 0


def test_interrupt_mid_wire_after_a_synchronous_grant_frees_the_nic():
    sim, net = make_net()
    link = net._egress_link("rack0-n0")

    def flow():
        yield from net.transfer("rack0-n0", "rack1-n0", BIG)

    victim = sim.spawn(flow())
    sim.run(until=5 * MS)  # half-way through the 10 ms wire time
    assert link.in_use == 1 and link.queue_length == 0
    victim.interrupt("test")
    sim.run()
    assert link.in_use == 0
    assert not victim.ok


# -- the scheduler's hedge-loser and deadline paths --------------------
#: Returned by the function body: the result transfer back to the
#: client spends 10 ms on the executor's NIC.
BIG_RESULT = bytes(BIG)


def _big_result_body(ctx):
    yield from ctx.compute(1e6)
    return BIG_RESULT


def make_big_result_cloud(warm=1):
    """Capacity-one nodes (so concurrent invokes land on distinct NICs)
    and a function whose result is BIG; ``warm`` sandboxes are
    provisioned up front. Returns (cloud, client, fn, latency of a
    warm invoke)."""
    sim = Simulator()
    topo = build_cluster(sim, racks=2, nodes_per_rack=3,
                         gpu_nodes_per_rack=0,
                         node_capacity=server_node(cpus=1, memory_gb=4))
    cloud = PCSICloud(sim, seed=5, keep_alive=600.0, topology=topo,
                      data_replicas=1)
    client = cloud.client_node()
    cloud.scheduler.control_node = client
    fn = cloud.define_function(
        "big", [FunctionImpl("wasm", WASM, cpu_task(cpus=1, memory_gb=1),
                             work_ops=1e6)],
        body=_big_result_body)

    def invoke():
        yield from cloud.invoke(client, fn)

    for _ in range(warm):
        sim.spawn(invoke())
    sim.run(until=sim.now + 1.0)
    start = sim.now
    cloud.run_process(invoke())
    return cloud, client, fn, sim.now - start


def _nic_in_use(cloud):
    return sum(link.in_use for link in cloud.network._egress.values())


def test_deadline_expiring_mid_result_transfer_frees_the_nic():
    cloud, client, fn, latency = make_big_result_cloud()
    held_at_expiry = []

    def flow():
        with pytest.raises(DeadlineExceededError):
            # Expires 5 ms before the end: inside the 10 ms wire time.
            yield from cloud.invoke(client, fn, deadline=latency - 5 * MS)
        held_at_expiry.append(_nic_in_use(cloud))

    cloud.run_process(flow())
    cloud.run(until=cloud.sim.now + 1.0)
    assert held_at_expiry == [1]  # the interrupted transfer held it
    assert _nic_in_use(cloud) == 0
    assert all(link.queue_length == 0
               for link in cloud.network._egress.values())


def test_hedge_loser_interrupted_mid_wire_frees_the_nic():
    """Two warm sandboxes on distinct nodes; the hedge fires 2 ms into
    the primary, so when the primary's result lands the secondary is
    still on the wire and is interrupted there."""
    cloud, client, fn, _ = make_big_result_cloud(warm=2)
    held_when_won = []
    policy = RetryPolicy(max_attempts=1, hedge_delay=2 * MS)

    def flow():
        yield from cloud.invoke(client, fn, retry=policy)
        held_when_won.append(_nic_in_use(cloud))

    cloud.run_process(flow())
    cloud.run(until=cloud.sim.now + 1.0)
    assert cloud.metrics.counter("invoke.hedge.cancelled",
                                 fn="big").value == 1
    assert held_when_won == [1]  # the loser was mid-wire
    assert _nic_in_use(cloud) == 0
