"""The network's traffic accounting, as the metrics registry exports it.

``Network`` keeps its byte and in-flight tallies itself and a registry
collector writes them into ``network.bytes``, ``network.local_bytes``
and ``network.inflight`` whenever the registry is read. These tests pin
what the registry exports for a run that takes every transfer path
(remote and local, several purposes, a lossy link, a partition wait,
interrupted transfers, drops, a sampler running throughout), what a
mid-flight read sees, how many registry lookups the hot path makes, and
that the in-flight level returns to zero.
"""

import hashlib
import json

import pytest

from repro.cluster import (
    DC_2021,
    Network,
    NetworkUnreachableError,
    build_cluster,
    cpu_task,
)
from repro.core import FunctionImpl, PCSICloud
from repro.faas import WASM
from repro.sim import Interrupt, LabeledMetricsRegistry, Simulator
from repro.sim.deadline import DeadlineExceededError, DeadlineScope
from repro.sim.resources import Store
from repro.sim.rng import RandomStream

#: sha256 of ``to_json(END)`` (sorted keys) plus ``to_line_protocol(END)``
#: after :func:`_run`, computed with the registry updated on every
#: transfer; the collected tallies must export the same bytes.
EXPORT_DIGEST = (
    "217e29a9601d0742b2d1cb34393b29567c5c767853dbd3acbc98134f14292516")
END = 0.5

A, B, C, D = "rack0-n0", "rack0-n1", "rack1-n0", "rack1-n1"


def _cloud(metrics=None):
    sim = Simulator()
    topo = build_cluster(sim, racks=2, nodes_per_rack=2,
                         gpu_nodes_per_rack=0)
    return sim, topo, Network(sim, topo, DC_2021, metrics=metrics)


def _run(seed=7):
    """One seeded run over every accounting path; returns the network
    and what a read taken mid-way through the first transfer saw."""
    sim, topo, net = _cloud()
    metrics = net.metrics
    sim.spawn(metrics.sampler_process(sim, 0.002), inherit_context=False)
    mid_flight = {}

    def first_transfer():
        yield from net.transfer(A, C, 4_000_000, purpose="bulk")

    def read_mid_flight():
        yield sim.timeout(0.001)
        mid_flight["gauges"] = metrics.gauges(sim.now)
        mid_flight["counters"] = metrics.counters()

    def hedge_arm(src, nbytes):
        yield from net.transfer(src, B, nbytes, purpose="invoke-result")

    def hedged():
        # Two arms race; the loser is interrupted mid-wire.
        slow = sim.spawn(swallow_interrupt(hedge_arm(A, 8_000_000)))
        fast = sim.spawn(hedge_arm(D, 2_000))
        yield sim.any_of([slow, fast])
        slow.interrupt(cause="hedge lost")

    def queued_then_dropped():
        # Queued behind A's NIC, then interrupted before its grant.
        yield from net.transfer(A, D, 1_000_000, purpose="data")

    def swallow_interrupt(gen):
        try:
            yield from gen
        except Interrupt:
            pass

    def deadline_in_retransmission():
        with DeadlineScope(sim, 1e-4):
            yield from net.transfer(B, D, 500, purpose="rpc")

    def phases():
        yield sim.spawn(first_transfer())
        for purpose in ("data", "rpc", "dispatch"):
            yield from net.transfer(A, B, 10_000, purpose=purpose)
            yield from net.transfer(C, C, 20_000, purpose=purpose)
            yield from net.round_trip(B, D, 300, 700, purpose=purpose)
        yield sim.spawn(hedged())
        yield from net.transfer(A, A, 0, purpose="fifo-put")
        # Two senders on A's NIC: the second queues and is interrupted.
        sim.spawn(swallow_interrupt(net.transfer(A, C, 2_000_000,
                                                 purpose="data")))
        queued = sim.spawn(swallow_interrupt(queued_then_dropped()))
        yield sim.timeout(1e-4)
        queued.interrupt(cause="gave up")
        yield sim.timeout(0.05)
        # A lossy link: reliable transfers retransmit, datagrams drop.
        net.set_loss(0.4, RandomStream(seed, "loss"), rto=0.003)
        for i in range(12):
            yield from net.transfer(B, C, 1_000 + i, purpose="rpc")
            net.send(C, B, Store(sim), "m", 64)
        try:
            yield from deadline_in_retransmission()
        except DeadlineExceededError:
            pass
        net.set_loss(0.0)
        yield sim.timeout(0.05)
        # A partition: a location-transparent transfer waits for the
        # heal, a fail-fast one gives up, a send is dropped.
        part = net.partition({A, B}, {C, D})

        def heal():
            yield sim.timeout(0.02)
            net.heal(part)

        sim.spawn(heal())
        net.send(A, C, Store(sim), "m", 64)
        try:
            yield from net.transfer(B, D, 50, purpose="rpc")
        except NetworkUnreachableError:
            pass
        yield from net.transfer(A, D, 30_000, fail_fast=False,
                                purpose="data")

    sim.spawn(read_mid_flight())
    sim.spawn(phases())
    sim.run(until=END)
    return net, mid_flight


def _export_digest(metrics):
    text = json.dumps(metrics.to_json(END), sort_keys=True) \
        + metrics.to_line_protocol(END)
    return hashlib.sha256(text.encode()).hexdigest()


def test_exports_are_pinned():
    net, _ = _run()
    counters = net.metrics.counters()
    # The run reached every path the pin is meant to cover.
    assert counters["network.retransmits"] > 0
    assert counters["network.unreachable"] == 2
    assert counters["network.dropped"] >= 2
    # The hedge's losing arm was interrupted mid-wire: only the
    # winner's bytes count.
    assert counters["network.bytes{purpose=invoke-result}"] == 2_000
    assert len([k for k in counters if k.startswith("network.bytes{")]) \
        >= 3
    assert len([k for k in counters
                if k.startswith("network.local_bytes{")]) >= 3
    assert _export_digest(net.metrics) == EXPORT_DIGEST


def test_a_mid_flight_read_sees_the_transfer_in_flight_but_not_its_bytes():
    _, mid_flight = _run()
    assert mid_flight["gauges"]["network.inflight"]["level"] == 1.0
    assert not any(name.startswith("network.bytes")
                   for name in mid_flight["counters"])


def test_inflight_level_returns_to_zero_after_interrupted_transfers():
    net, _ = _run()
    gauges = net.metrics.gauges(END)
    assert gauges["network.inflight"]["level"] == 0.0
    assert gauges["network.inflight"]["peak"] >= 2.0


def test_aggregates_are_the_sum_over_purposes():
    net, _ = _run()
    counters = net.metrics.counters()
    for name in ("network.bytes", "network.local_bytes"):
        children = [v for k, v in counters.items()
                    if k.startswith(name + "{")]
        assert counters[name] == sum(children)
        assert all(type(v) is float for v in children)


def test_purposes_past_the_label_cap_share_the_overflow_child():
    sim, topo, net = _cloud(LabeledMetricsRegistry(max_label_sets=1))

    def flow():
        for purpose, nbytes in (("a", 100), ("b", 20), ("c", 3)):
            yield from net.transfer(A, B, nbytes, purpose=purpose)

    sim.spawn(flow())
    sim.run()
    counters = net.metrics.counters()
    assert counters["network.bytes{purpose=a}"] == 100.0
    assert counters["network.bytes{__overflow__=true}"] == 23.0
    assert counters["network.bytes"] == 123.0
    # Each overflowed purpose is counted once, and reads do not add.
    net.metrics.counters()
    assert net.metrics.dropped_label_sets == 2


def test_a_second_producer_of_a_collected_family_is_refused():
    sim, topo, net = _cloud()
    with pytest.raises(ValueError):
        Network(sim, topo, DC_2021, metrics=net.metrics)


# -- registry lookups on the hot path ------------------------------------

def _count_lookups(monkeypatch):
    calls = []
    lookup = LabeledMetricsRegistry._instrument

    def counting(self, kind, name, labels):
        calls.append(name)
        return lookup(self, kind, name, labels)

    monkeypatch.setattr(LabeledMetricsRegistry, "_instrument", counting)
    return calls


def test_a_reachable_lossless_transfer_makes_no_registry_call(monkeypatch):
    sim, topo, net = _cloud()
    calls = _count_lookups(monkeypatch)

    def flow():
        yield from net.transfer(A, C, 5_000, purpose="data")
        yield from net.transfer(B, B, 5_000, purpose="data")

    sim.spawn(flow())
    sim.run()
    assert calls == []
    assert net.metrics.counter("network.bytes").value == 5_000


def _body(ctx):
    yield from ctx.compute(1e6)
    return {"ok": True}


def test_a_bare_warm_invoke_makes_at_most_three_registry_lookups(
        monkeypatch):
    cloud = PCSICloud(racks=2, nodes_per_rack=4, gpu_nodes_per_rack=0,
                      seed=3)
    fn = cloud.define_function(
        "bare", [FunctionImpl("wasm", WASM,
                              cpu_task(cpus=1, memory_gb=0.5),
                              work_ops=1e6)],
        body=_body)
    client = cloud.client_node()

    def invokes(count):
        for _ in range(count):
            yield from cloud.invoke(client, fn, {}, {})

    cloud.run_process(invokes(5))
    calls = _count_lookups(monkeypatch)
    cloud.run_process(invokes(100))
    assert cloud.scheduler.history[-1].cold_start is False
    assert len(calls) <= 3 * 100
    assert not any(name.startswith("network.") for name in calls)


# -- deadline messages ----------------------------------------------------

def test_transfer_deadline_message_names_the_endpoints():
    sim, topo, net = _cloud()

    def flow():
        with DeadlineScope(sim, 0.1):
            yield sim.timeout(0.2)
            yield from net.transfer(A, C, 10)

    with pytest.raises(DeadlineExceededError) as err:
        sim.run_until_event(sim.spawn(flow()))
    assert str(err.value) == (
        f"transfer {A}->{C}: deadline budget exhausted at t=0.200000")


def test_state_op_deadline_message_names_the_function():
    cloud = PCSICloud(racks=2, nodes_per_rack=4, gpu_nodes_per_rack=0,
                      seed=61)

    def body(ctx):
        with DeadlineScope(cloud.sim, 1e-3):
            yield from ctx.compute(1e9)
            yield from ctx.read(None)  # the boundary check raises first

    fn = cloud.define_function(
        "slowfn", [FunctionImpl("wasm", WASM,
                                cpu_task(cpus=1, memory_gb=0.5),
                                work_ops=1e9)],
        body=body)
    client = cloud.client_node()
    with pytest.raises(DeadlineExceededError) as err:
        cloud.run_process(cloud.invoke(client, fn))
    assert str(err.value) == (
        "slowfn state op: deadline budget exhausted at t=0.034228")
