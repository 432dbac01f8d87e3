"""One producer per invoke fact.

A finished invoke reports its latency once (``invoke.latency``), its
cold start once per layer (the ``cold=`` label of that histogram, and
``warmpool.acquire{outcome=cold}`` at the pool), and, when traced, its
placement and service time once (the ``invoke`` span tree). No flat
per-function metric name and no flat trace record repeats them.
"""

import pytest

from repro.cluster import cpu_task
from repro.core import FunctionImpl, PCSICloud
from repro.faas import WASM

FN = "facts"
WARM_INVOKES = 4


def _run(trace: bool) -> PCSICloud:
    cloud = PCSICloud(racks=2, nodes_per_rack=2, gpu_nodes_per_rack=0,
                      seed=5, trace=trace)
    fn = cloud.define_function(
        FN, [FunctionImpl("wasm", WASM, cpu_task(), work_ops=1e8)])
    client = cloud.client_node()

    def flow():
        for _ in range(1 + WARM_INVOKES):
            yield from cloud.invoke(client, fn)

    cloud.run_process(flow())
    return cloud


def _family_names(cloud: PCSICloud) -> set:
    metrics = cloud.metrics
    keys = (list(metrics.counters()) + list(metrics.histograms())
            + list(metrics.gauges(cloud.sim.now)))
    return {key.split("{", 1)[0] for key in keys}


@pytest.mark.parametrize("trace", [False, True])
def test_each_invoke_fact_has_one_producer(trace):
    cloud = _run(trace)
    names = _family_names(cloud)
    assert "invoke.latency" in names and "warmpool.acquire" in names
    for duplicate in (f"invoke.{FN}", f"invoke.{FN}.cold",
                      "warmpool.warm_hits", "warmpool.cold_starts"):
        assert duplicate not in names
    assert "invoke.span" not in {s.category for s in cloud.tracer.spans()}

    metrics = cloud.metrics
    cold = metrics.histogram("invoke.latency", fn=FN, impl="wasm",
                             cold=True).count
    warm = metrics.histogram("invoke.latency", fn=FN, impl="wasm",
                             cold=False).count
    pool = f"{FN}/wasm"
    assert cold == metrics.counter("warmpool.acquire", pool=pool,
                                   outcome="cold").value \
        == cloud.scheduler.cold_start_count() == 1
    assert warm == metrics.counter("warmpool.acquire", pool=pool,
                                   outcome="warm").value == WARM_INVOKES
    assert metrics.histogram("invoke.latency").count \
        == len(cloud.scheduler.history) == 1 + WARM_INVOKES
