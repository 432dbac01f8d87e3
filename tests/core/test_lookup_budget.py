"""Registry lookups of a warm invoke.

Warm pools, the scheduler and the admission gateway tally their own
counts and the registry collects them when it is read, so the only
instrument a warm invoke looks up is the ``invoke.latency`` histogram:
one ``LabeledMetricsRegistry._instrument`` call per invoke, on a bare
cloud and on one with tracing, attribution, health and a non-binding
gateway. The health monitor's own ``health.*`` gauges are its periodic
work, not the invoke's, and are left out of the count.
"""

import pytest

from repro.cluster import cpu_task
from repro.core import FunctionImpl, PCSICloud
from repro.faas import WASM
from repro.net import GatewayConfig
from repro.sim import LabeledMetricsRegistry

WARMUP = 5
INVOKES = 100


def _body(ctx):
    yield from ctx.compute(1e6)
    return {"ok": True}


def _bare():
    cloud = PCSICloud(racks=2, nodes_per_rack=4, gpu_nodes_per_rack=0,
                      seed=3)
    return cloud, lambda client, fn: cloud.invoke(client, fn, {}, {})


def _planes():
    never_binding = GatewayConfig(rate_per_tenant=1e9, burst=1e9,
                                  max_concurrency=64, max_queue=256)
    cloud = PCSICloud(racks=2, nodes_per_rack=4, gpu_nodes_per_rack=0,
                      seed=3, trace=True, attribution=True, health=True,
                      admission=never_binding)
    return cloud, lambda client, fn: cloud.gateway.submit(
        client, fn, None, {}, tenant="bench")


@pytest.mark.parametrize("build", [_bare, _planes],
                         ids=["bare", "planes"])
def test_a_warm_invoke_looks_up_only_its_latency_histogram(
        build, monkeypatch):
    cloud, issue = build()
    fn = cloud.define_function(
        "bare", [FunctionImpl("wasm", WASM,
                              cpu_task(cpus=1, memory_gb=0.5),
                              work_ops=1e6)],
        body=_body)
    client = cloud.client_node()

    def invokes(count):
        for _ in range(count):
            yield from issue(client, fn)

    cloud.run_process(invokes(WARMUP))
    calls = []
    lookup = LabeledMetricsRegistry._instrument

    def counting(self, kind, name, labels):
        calls.append(name)
        return lookup(self, kind, name, labels)

    monkeypatch.setattr(LabeledMetricsRegistry, "_instrument", counting)
    cloud.run_process(invokes(INVOKES))
    assert cloud.scheduler.history[-1].cold_start is False
    assert not [name for name in calls if name.startswith(
        ("warmpool.", "scheduler.placement", "gateway."))]
    invoke_calls = [name for name in calls
                    if not name.startswith("health.")]
    assert invoke_calls == ["invoke.latency"] * INVOKES
