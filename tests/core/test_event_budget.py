"""Event budget of a bare warm invoke.

With every plane off, a warm invoke schedules exactly seven events:
per transfer (dispatch request, dispatch reply, result) one wire-time
timeout and one propagation timeout, plus the compute timeout. Free
NIC slots are taken without a grant event and an executor keeps one
idle-reaper across releases, so no bookkeeping event moves no
simulated time. A change that brings one back fails here, not only in
the benchmark.
"""

from repro.cluster import cpu_task
from repro.core import FunctionImpl, PCSICloud
from repro.faas import WASM

EVENTS_PER_WARM_INVOKE = 7
WARMUP = 5
INVOKES = 200


def _body(ctx):
    yield from ctx.compute(1e6)
    return {"ok": True}


def test_bare_warm_invoke_schedules_seven_events():
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

    cloud.run_process(invokes(WARMUP))
    seq = cloud.sim._seq
    cloud.run_process(invokes(INVOKES))
    # ``run_process`` adds its process's init kick and completion.
    assert cloud.sim._seq - seq - 2 == EVENTS_PER_WARM_INVOKE * INVOKES
    assert cloud.scheduler.history[-1].cold_start is False
