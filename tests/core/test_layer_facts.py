"""One producer per network, storage, transport and fault fact.

Below the invoke, each fact has exactly one record:

* a storage op's count is the ``count`` of its
  ``storage.op_latency{store,op,consistency}`` histogram;
* a REST or session call's count is ``rest.latency``/``session.latency``;
* a network message's count rides on ``network.bytes`` (no
  ``network.messages`` twin), and a dropped send is the
  ``network.dropped{src,dst,cause}`` counter (no ``net.drop`` record);
* an injected fault is a ``fault.*`` counter (no ``fault.*`` trace
  record and no injector event list).
"""

import inspect

import pytest

from repro.cluster import cpu_task
from repro.cluster.failures import ChaosInjector, ChaosPlan, FailureInjector
from repro.cluster.health import CompletionLog
from repro.core import Consistency, FunctionImpl, PCSICloud
from repro.faas import WASM
from repro.net import RestTransport, Service, SessionTransport, SizedPayload
from repro.sim import Store

#: (op, consistency) -> number issued.
DATA_OPS = {("write", "linearizable"): 2, ("read", "linearizable"): 3,
            ("write", "eventual"): 1, ("read", "eventual"): 2}
REST_CALLS = 2
SESSION_CALLS = 3
HORIZON = 4.0

DELETED_FAMILIES = ("network.messages", "store.linearizable_writes",
                    "store.linearizable_reads", "store.eventual_writes",
                    "store.eventual_reads", "rest.calls", "session.calls")

#: Fault kind in the schedule -> the counters its injection writes.
FAULT_COUNTERS = {"crash": ("crash", "recover"),
                  "recover": ("crash", "recover"),
                  "gray": ("gray", "gray_restored"),
                  "partition": ("partition", "heal")}


def _run(trace: bool):
    cloud = PCSICloud(racks=2, nodes_per_rack=4, gpu_nodes_per_rack=0,
                      seed=7, trace=trace)
    sim, network = cloud.sim, cloud.network
    client = cloud.client_node()
    replicas = set(cloud.data.store.replica_nodes)
    dead = next(n.node_id for n in cloud.topology.nodes
                if n.node_id not in replicas and n.node_id != client)
    # Seed 2 draws every fault kind inside the horizon.
    plan = ChaosPlan(seed=2, horizon=HORIZON, start=1.0, crash_rate=1.0,
                     downtime_mean=0.5, gray_rate=1.0, partition_rate=0.5,
                     recover_rate=0.5, protected=(client, dead))
    injector = ChaosInjector(sim, cloud.topology, network,
                             metrics=cloud.metrics)
    events = injector.execute(plan)

    service = Service(sim, network, dead, "echo")

    def echo(ctx):
        return ctx.body
        yield  # pragma: no cover - makes this a generator function

    service.register("echo", echo)
    fn = cloud.define_function(
        "facts", [FunctionImpl("wasm", WASM, cpu_task(), work_ops=1e6)])
    objects = {level: cloud.create_object(consistency=Consistency(level))
               for level in ("linearizable", "eventual")}

    def flow():
        yield from cloud.invoke(client, fn)
        for (op, level), n in DATA_OPS.items():
            for _ in range(n):
                if op == "write":
                    yield from cloud.op_write(client, objects[level],
                                              SizedPayload(1000))
                else:
                    yield from cloud.op_read(client, objects[level])
        rest = RestTransport(network)
        for _ in range(REST_CALLS):
            yield from rest.call(client, service, "echo", {"x": 1})
        session = yield from SessionTransport(network).connect(client,
                                                                service)
        for _ in range(SESSION_CALLS):
            yield from session.call("echo", {"x": 1})
        cloud.topology.node(dead).crash()
        network.send(client, dead, Store(sim), "ping", nbytes=64)

    cloud.run_process(flow())
    assert sim.now < plan.start  # the ops ran before the storm
    cloud.run(until=HORIZON + 1.0)
    return cloud, injector, events, client, dead


def _family_names(cloud: PCSICloud) -> set:
    metrics = cloud.metrics
    keys = (list(metrics.counters()) + list(metrics.histograms())
            + list(metrics.gauges(cloud.sim.now)))
    return {key.split("{", 1)[0] for key in keys}


@pytest.mark.parametrize("trace", [False, True])
def test_each_layer_fact_has_one_producer(trace):
    cloud, injector, events, client, dead = _run(trace)
    metrics = cloud.metrics
    names = _family_names(cloud)
    assert {"network.bytes", "storage.op_latency", "rest.latency",
            "session.latency", "network.dropped"} <= names
    for duplicate in DELETED_FAMILIES:
        assert duplicate not in names
    categories = {s.category for s in cloud.tracer.spans()}
    assert ("net.transfer" in categories) == trace
    assert "net.drop" not in categories
    assert not any(c.startswith("fault.") for c in categories)

    for (op, level), n in DATA_OPS.items():
        assert metrics.histogram("storage.op_latency", store="data", op=op,
                                 consistency=level).count == n
    assert metrics.histogram("rest.latency").count == REST_CALLS
    assert metrics.histogram("session.latency").count == SESSION_CALLS

    assert events and {ev.kind for ev in events} == set(FAULT_COUNTERS)
    counters = metrics.counters()
    expected = {}
    for ev in events:
        for kind in FAULT_COUNTERS[ev.kind]:
            expected[f"fault.{kind}"] = expected.get(f"fault.{kind}", 0) + 1
    assert {name: value for name, value in counters.items()
            if name.startswith("fault.") and "{" not in name} == expected
    assert not hasattr(injector, "injected")

    assert counters["network.dropped"] == 1
    assert metrics.counter("network.dropped", src=client, dst=dead,
                           cause="unreachable").value == 1


def test_no_shadow_ledgers_outside_the_registry():
    """The injector takes no tracer; the completion log keeps no hit
    tally (``HealthPlane.deduped`` does)."""
    assert "tracer" not in inspect.signature(FailureInjector).parameters
    log = CompletionLog()
    log.record("k", 1)
    assert log.lookup("k") == 1
    assert not hasattr(log, "hits")
