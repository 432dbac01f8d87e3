"""The health plane keeps no per-invoke state once an invoke is over.

The completion log dedups re-dispatches *within* one invoke, so an
invoke's idempotency key is forgotten when its request path exits, and
the dispatch ledger holds only what is in flight.
"""

from repro.cluster.resources import cpu_task
from repro.core.functions import FunctionImpl
from repro.core.retry import RetryPolicy
from repro.core.system import PCSICloud
from repro.faas.platforms import WASM


def test_health_state_is_empty_after_many_invokes():
    cloud = PCSICloud(racks=1, nodes_per_rack=4, gpu_nodes_per_rack=0,
                      data_replicas=1, health=True)
    fn = cloud.define_function(
        "f", [FunctionImpl("wasm", WASM, cpu_task(cpus=1, memory_gb=1),
                           work_ops=1e6)])
    client = cloud.client_node()
    hedged = RetryPolicy(hedge_delay=1e-6)

    def flow():
        for i in range(1000):
            retry = hedged if i % 10 == 0 else None
            yield from cloud.invoke(client, fn, retry=retry)

    cloud.run_process(flow())
    health = cloud.health
    assert health._idem_seq == 1000
    assert cloud.metrics.counter("invoke.hedge.launched",
                                 fn="f").value == 100
    assert len(health.completions._results) == 0
    assert health.ledger.total_in_flight() == 0
    assert health.ledger._innermost == {}
