"""Edge cases for failure injection: permanent crashes, overlapping
partitions, mid-flight death, recovery wakeups, and drop labeling."""

import pytest

from repro.cluster import (
    DC_2021,
    FailureInjector,
    Network,
    NetworkUnreachableError,
    build_cluster,
)
from repro.sim import Simulator, Store
from repro.sim.rng import RandomStream


def make_net(racks=2, nodes_per_rack=2):
    sim = Simulator()
    topo = build_cluster(sim, racks=racks, nodes_per_rack=nodes_per_rack,
                         gpu_nodes_per_rack=0)
    net = Network(sim, topo, DC_2021)
    return sim, topo, net


# ------------------------------------------------- crash without recovery
def test_permanent_crash_fail_fast_raises_promptly():
    sim, topo, net = make_net()
    inj = FailureInjector(sim, topo, net)
    inj.crash_node("rack1-n0", at=0.0)  # never recovers
    errors = []

    def client():
        yield sim.timeout(0.001)
        try:
            yield from net.transfer("rack0-n0", "rack1-n0", 100)
        except NetworkUnreachableError:
            errors.append(sim.now)

    sim.spawn(client())
    sim.run()
    assert len(errors) == 1
    assert errors[0] <= 0.001 \
        + DC_2021.network_rtt * Network.FAIL_FAST_RTT_MULTIPLIER + 1e-9


def test_permanent_crash_location_transparent_hangs_forever():
    """A POSIX-style waiter on a dead node with no recovery event is
    never woken — the §2.2 pathology the fail-fast contract replaces."""
    sim, topo, net = make_net()
    inj = FailureInjector(sim, topo, net)
    inj.crash_node("rack1-n0", at=0.0)
    done = []

    def client():
        yield sim.timeout(0.001)
        yield from net.transfer("rack0-n0", "rack1-n0", 100,
                                fail_fast=False)
        done.append(sim.now)

    proc = sim.spawn(client())
    sim.run(until=120.0)
    assert not done
    assert proc.is_alive


# --------------------------------------------------- overlapping partitions
def test_overlapping_partitions_block_until_both_heal():
    """Two partitions isolating the same node must *both* heal before
    traffic flows again — healing one is not enough."""
    sim, topo, net = make_net()
    inj = FailureInjector(sim, topo, net)
    others = {n.node_id for n in topo.nodes if n.node_id != "rack0-n0"}
    inj.partition({"rack0-n0"}, others, at=0.0, heal_at=2.0)
    inj.partition({"rack0-n0"}, others, at=1.0, heal_at=3.0)
    probes = {}

    def probe(at):
        yield sim.timeout(at - sim.now)
        probes[at] = net.is_reachable("rack0-n0", "rack1-n0")

    for at in (0.5, 1.5, 2.5, 3.5):
        sim.spawn(probe(at))
    sim.run()
    assert probes == {0.5: False, 1.5: False, 2.5: False, 3.5: True}


def test_location_transparent_wait_survives_partial_heal():
    sim, topo, net = make_net()
    inj = FailureInjector(sim, topo, net)
    others = {n.node_id for n in topo.nodes if n.node_id != "rack0-n0"}
    inj.partition({"rack0-n0"}, others, at=0.0, heal_at=2.0)
    inj.partition({"rack0-n0"}, others, at=1.0, heal_at=3.0)
    done = []

    def client():
        yield sim.timeout(0.5)
        yield from net.transfer("rack0-n0", "rack1-n0", 100,
                                fail_fast=False)
        done.append(sim.now)

    sim.spawn(client())
    sim.run()
    assert len(done) == 1
    assert done[0] > 3.0  # not released by the first heal at t=2


# --------------------------------------------------------- crash mid-flight
def test_crash_mid_flight_drops_message_with_cause():
    """A fire-and-forget message whose destination dies while it is in
    flight is dropped and labeled dst-dead (never a silent loss)."""
    sim, topo, net = make_net()
    inbox = Store(sim)
    # 100 MB takes ~0.1 s of wire time; the crash lands mid-transfer.
    net.send("rack0-n0", "rack1-n0", inbox, "payload", nbytes=100_000_000)
    FailureInjector(sim, topo, net).crash_node("rack1-n0", at=0.001)
    sim.run()
    assert len(inbox) == 0
    counters = net.metrics.counters()
    assert counters.get("network.dropped", 0.0) == 1
    labeled = [name for name in counters
               if name.startswith("network.dropped{")
               and "cause=dst-dead" in name
               and "src=rack0-n0" in name and "dst=rack1-n0" in name]
    assert labeled


def test_send_to_already_dead_node_labeled_unreachable():
    sim, topo, net = make_net()
    topo.node("rack1-n0").crash()
    inbox = Store(sim)
    net.send("rack0-n0", "rack1-n0", inbox, "hello", nbytes=10)
    sim.run()
    assert len(inbox) == 0
    counters = net.metrics.counters()
    labeled = [name for name in counters
               if name.startswith("network.dropped{")
               and "cause=unreachable" in name]
    assert labeled


def test_lossy_link_drops_labeled_and_seeded():
    sim, topo, net = make_net()
    net.set_loss(0.5, rng=RandomStream(13, "loss"))
    inbox = Store(sim)
    for _ in range(40):
        net.send("rack0-n0", "rack1-n0", inbox, "m", nbytes=10)
    sim.run()
    counters = net.metrics.counters()
    dropped = counters.get("network.dropped", 0.0)
    assert dropped > 0
    assert len(inbox) == 40 - dropped
    labeled = [name for name in counters
               if name.startswith("network.dropped{")
               and "cause=loss" in name]
    assert labeled


# --------------------------------------------------- recovery wakeup order
def test_recovery_event_wakes_transparent_waiters_in_order():
    """Waiters parked on a crashed node all resume once the recovery
    event fires, and none resume a tick early."""
    sim, topo, net = make_net()
    inj = FailureInjector(sim, topo, net)
    inj.crash_node("rack1-n0", at=0.0, recover_at=5.0)
    wakeups = []

    def waiter(tag, start):
        yield sim.timeout(start)
        yield from net.transfer("rack0-n0", "rack1-n0", 100,
                                fail_fast=False)
        wakeups.append((tag, sim.now))

    sim.spawn(waiter("early", 0.001))
    sim.spawn(waiter("late", 2.0))
    sim.run()
    assert [tag for tag, _ in wakeups] == ["early", "late"]
    assert all(at >= 5.0 for _, at in wakeups)


def test_crash_validation():
    sim, topo, net = make_net()
    inj = FailureInjector(sim, topo, net)
    with pytest.raises(ValueError):
        inj.crash_node("rack0-n0", at=1.0, recover_at=1.0)
    with pytest.raises(ValueError):
        inj.gray_node("rack0-n0", at=0.0, slowdown=0.5)
    with pytest.raises(ValueError):
        inj.gray_node("rack0-n0", at=1.0, slowdown=2.0, restore_at=0.5)
