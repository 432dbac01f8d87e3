"""Span budget of one traced invoke.

A span is opened only where the request spends simulated time of its
own, or where a fact is first known. A warm invoke therefore records
its root, one ``attempt``, the ``execute``/``compute`` pair and three
transfers (dispatch request, dispatch reply, result); a non-binding
gateway adds its ``gateway.admit`` root; a cold start adds exactly one
``sandbox.provision`` and a starved acquire exactly one ``queue.wait``.
A change that brings back a wrapper span repeating its child's
interval or the root's attributes fails here.
"""

from collections import Counter

from repro.cluster import cpu_task
from repro.core import FunctionImpl, PCSICloud
from repro.faas import WASM
from repro.net import GatewayConfig

WARM = Counter({"invoke": 1, "attempt": 1, "execute": 1, "compute": 1,
                "net.transfer": 3})


def _body(ctx):
    yield from ctx.compute(1e6)
    return {"ok": True}


def _cloud(**kwargs):
    cloud = PCSICloud(racks=2, nodes_per_rack=4, gpu_nodes_per_rack=0,
                      seed=3, trace=True, **kwargs)
    fn = cloud.define_function(
        "budget", [FunctionImpl("wasm", WASM,
                                cpu_task(cpus=1, memory_gb=0.5),
                                work_ops=1e6)],
        body=_body)
    return cloud, fn, cloud.client_node()


def _names(cloud, root) -> Counter:
    """The multiset of span names in ``root``'s tree."""
    return Counter(span.name for span in cloud.tracer.walk(root))


def _invoke(cloud, fn, client):
    def flow():
        yield from cloud.invoke(client, fn, {}, {})
    cloud.run_process(flow())
    return cloud.tracer.roots()[-1]


def test_warm_direct_invoke():
    cloud, fn, client = _cloud()
    _invoke(cloud, fn, client)
    assert _names(cloud, _invoke(cloud, fn, client)) == WARM
    assert cloud.scheduler.history[-1].cold_start is False


def test_warm_invoke_through_a_non_binding_gateway():
    never_binding = GatewayConfig(rate_per_tenant=1e9, burst=1e9,
                                  max_concurrency=64, max_queue=256)
    cloud, fn, client = _cloud(admission=never_binding)

    def flow():
        yield from cloud.gateway.submit(client, fn, None, {},
                                        tenant="t")

    cloud.run_process(flow())
    cloud.run_process(flow())
    root = cloud.tracer.roots()[-1]
    assert root.name == "gateway.admit"
    assert _names(cloud, root) == WARM + Counter({"gateway.admit": 1})


def test_cold_invoke_adds_one_provision():
    cloud, fn, client = _cloud()
    root = _invoke(cloud, fn, client)
    assert cloud.scheduler.history[-1].cold_start is True
    assert _names(cloud, root) == WARM + Counter({"sandbox.provision": 1})


def test_starved_invoke_adds_one_queue_wait():
    cloud, fn, client = _cloud()
    _invoke(cloud, fn, client)
    cloud.scheduler._pools[("budget", "wasm")].max_executors = 1

    def one():
        yield from cloud.invoke(client, fn, {}, {})

    def pair():
        sim = cloud.sim
        yield sim.all_of([sim.spawn(one()), sim.spawn(one())])

    cloud.run_process(pair())
    first, second = cloud.tracer.roots()[-2:]
    assert _names(cloud, first) == WARM
    assert _names(cloud, second) == WARM + Counter({"queue.wait": 1})
