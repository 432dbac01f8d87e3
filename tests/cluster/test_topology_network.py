"""Tests for topology construction and the network model."""

import pytest

from repro.cluster import (
    DC_2021,
    FailureInjector,
    Network,
    NetworkUnreachableError,
    Node,
    Topology,
    build_cluster,
    server_node,
)
from repro.sim import Simulator, Tracer


def make_net(racks=2, nodes_per_rack=2, profile=DC_2021, tracer=None):
    sim = Simulator()
    topo = build_cluster(sim, racks=racks, nodes_per_rack=nodes_per_rack,
                         gpu_nodes_per_rack=1)
    net = Network(sim, topo, profile, tracer=tracer)
    return sim, topo, net


# ------------------------------------------------------------------ Topology
def test_build_cluster_shape():
    sim, topo, _ = make_net(racks=3, nodes_per_rack=4)
    assert len(topo.nodes) == 12
    assert len(topo.racks) == 3
    assert len(topo.rack_nodes("rack0")) == 4


def test_gpu_nodes_per_rack():
    sim, topo, _ = make_net(racks=2, nodes_per_rack=3)
    gpu_nodes = topo.nodes_with_device("gpu")
    assert len(gpu_nodes) == 2  # one per rack
    assert all(n.node_id.endswith("-n0") for n in gpu_nodes)


def test_duplicate_node_rejected():
    sim = Simulator()
    topo = Topology()
    topo.add_node(Node(sim, "a", "r0", server_node()))
    with pytest.raises(ValueError):
        topo.add_node(Node(sim, "a", "r0", server_node()))


def test_same_rack_detection():
    sim, topo, _ = make_net()
    assert topo.same_rack("rack0-n0", "rack0-n1")
    assert not topo.same_rack("rack0-n0", "rack1-n0")


def test_build_cluster_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        build_cluster(sim, racks=0)
    with pytest.raises(ValueError):
        build_cluster(sim, nodes_per_rack=2, gpu_nodes_per_rack=3)


def test_live_nodes_excludes_crashed():
    sim, topo, _ = make_net()
    topo.node("rack0-n0").crash()
    assert len(topo.live_nodes()) == len(topo.nodes) - 1


# ------------------------------------------------------------------- Network
def test_cross_rack_transfer_latency():
    sim, topo, net = make_net()
    results = []

    def proc(sim):
        delay = yield from net.transfer("rack0-n0", "rack1-n0", nbytes=1024)
        results.append((sim.now, delay))

    sim.spawn(proc(sim))
    sim.run()
    expected = (DC_2021.socket_overhead + DC_2021.one_way()
                + DC_2021.wire_time(1024))
    assert results[0][0] == pytest.approx(expected)
    assert results[0][1] == pytest.approx(expected)


def test_same_rack_is_faster_than_cross_rack():
    sim, topo, net = make_net()
    assert (net.one_way_delay("rack0-n0", "rack0-n1", 0)
            < net.one_way_delay("rack0-n0", "rack1-n0", 0))


def test_local_transfer_is_device_copy():
    sim, topo, net = make_net()
    local = net.one_way_delay("rack0-n0", "rack0-n0", 1024)
    remote = net.one_way_delay("rack0-n0", "rack0-n1", 1024)
    assert local == pytest.approx(DC_2021.device_copy_time(1024))
    assert local < remote / 5


def test_round_trip_sums_both_directions():
    sim, topo, net = make_net()
    out = []

    def proc(sim):
        delay = yield from net.round_trip("rack0-n0", "rack1-n0", 100, 1000)
        out.append(delay)

    sim.spawn(proc(sim))
    sim.run()
    expected = (net.one_way_delay("rack0-n0", "rack1-n0", 100)
                + net.one_way_delay("rack1-n0", "rack0-n0", 1000))
    assert out[0] == pytest.approx(expected)


def test_transfer_records_metrics_and_trace():
    tracer = Tracer()
    sim, topo, net = make_net(tracer=tracer)

    def proc(sim):
        yield from net.transfer("rack0-n0", "rack1-n0", nbytes=500)
        yield from net.transfer("rack0-n0", "rack0-n0", nbytes=300)

    sim.spawn(proc(sim))
    sim.run()
    assert net.metrics.counter("network.bytes").value == 500
    assert net.metrics.counter("network.local_bytes").value == 300
    assert [s.attributes["nbytes"]
            for s in tracer.spans(category="net.transfer")] == [500]
    assert [s.attributes["nbytes"]
            for s in tracer.spans(category="net.local_copy")] == [300]


def test_fail_fast_unreachable_raises_after_detection_delay():
    sim, topo, net = make_net()
    net.partition({"rack0-n0", "rack0-n1"}, {"rack1-n0", "rack1-n1"})
    errors = []

    def proc(sim):
        try:
            yield from net.transfer("rack0-n0", "rack1-n0", 100)
        except NetworkUnreachableError:
            errors.append(sim.now)

    sim.spawn(proc(sim))
    sim.run()
    assert len(errors) == 1
    assert errors[0] == pytest.approx(
        DC_2021.network_rtt * Network.FAIL_FAST_RTT_MULTIPLIER)


def test_location_transparent_send_blocks_until_heal():
    sim, topo, net = make_net()
    part = net.partition({"rack0-n0"}, {"rack1-n0"})
    done = []

    def client(sim):
        yield from net.transfer("rack0-n0", "rack1-n0", 100, fail_fast=False)
        done.append(sim.now)

    def healer(sim):
        yield sim.timeout(30.0)
        net.heal(part)

    sim.spawn(client(sim))
    sim.spawn(healer(sim))
    sim.run()
    assert len(done) == 1
    assert done[0] > 30.0


def test_send_to_dead_node_dropped():
    from repro.sim import Store
    sim, topo, net = make_net()
    topo.node("rack1-n0").crash()
    inbox = Store(sim)
    net.send("rack0-n0", "rack1-n0", inbox, "hello", nbytes=10)
    sim.run()
    assert len(inbox) == 0
    assert net.metrics.counter("network.dropped").value == 1


def test_send_delivers_message():
    from repro.sim import Store
    sim, topo, net = make_net()
    inbox = Store(sim)
    net.send("rack0-n0", "rack1-n0", inbox, {"op": "get"}, nbytes=64)
    sim.run()
    assert inbox.try_get() == {"op": "get"}


def test_partition_overlap_rejected():
    sim, topo, net = make_net()
    with pytest.raises(ValueError):
        net.partition({"rack0-n0"}, {"rack0-n0"})


def test_heal_inactive_partition_rejected():
    sim, topo, net = make_net()
    part = net.partition({"rack0-n0"}, {"rack1-n0"})
    net.heal(part)
    with pytest.raises(ValueError):
        net.heal(part)


# ---------------------------------------------------------- FailureInjector
def test_crash_and_recover_schedule():
    sim, topo, net = make_net()
    inj = FailureInjector(sim, topo, net)
    inj.crash_node("rack0-n0", at=5.0, recover_at=10.0)
    observations = []

    def observer(sim):
        yield sim.timeout(6.0)
        observations.append(("t6", topo.node("rack0-n0").alive))
        yield sim.timeout(5.0)
        observations.append(("t11", topo.node("rack0-n0").alive))

    sim.spawn(observer(sim))
    sim.run()
    assert observations == [("t6", False), ("t11", True)]


def test_location_transparent_client_wakes_on_node_recovery():
    sim, topo, net = make_net()
    inj = FailureInjector(sim, topo, net)
    inj.crash_node("rack1-n0", at=0.0, recover_at=20.0)
    done = []

    def client(sim):
        yield sim.timeout(1.0)  # after the crash
        yield from net.transfer("rack0-n0", "rack1-n0", 64, fail_fast=False)
        done.append(sim.now)

    sim.spawn(client(sim))
    sim.run()
    assert len(done) == 1
    assert done[0] >= 20.0


def test_injector_validation():
    sim, topo, net = make_net()
    inj = FailureInjector(sim, topo, net)
    with pytest.raises(ValueError):
        inj.crash_node("rack0-n0", at=5.0, recover_at=5.0)
    with pytest.raises(ValueError):
        inj.partition({"a"}, {"b"}, at=5.0, heal_at=4.0)
    with pytest.raises(RuntimeError):
        FailureInjector(sim, topo, None).partition({"a"}, {"b"}, at=1.0)
