"""Event budget of a bare warm invoke.

With every plane off, a warm invoke schedules exactly four events:
one timeout per transfer (dispatch request, dispatch reply, result),
at the transfer's arrival, plus the compute timeout. A free NIC is
taken without a grant event and frees itself at the end of the wire
time without one, and an executor keeps one idle-reaper across
releases, so each of the four moves simulated time. A change that
brings a bookkeeping event back fails here, not only in the benchmark.
"""

from repro.cluster import cpu_task
from repro.core import FunctionImpl, PCSICloud
from repro.faas import WASM

EVENTS_PER_WARM_INVOKE = 4
WARMUP = 5
INVOKES = 200


def _body(ctx):
    yield from ctx.compute(1e6)
    return {"ok": True}


def test_bare_warm_invoke_schedules_four_events():
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
