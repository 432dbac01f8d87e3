"""Differential test: NoAdmission is byte-identical to the seed path.

The pass-through front door must add *nothing* — no events, no spans,
no metrics, no RNG draws — over calling ``cloud.invoke`` directly.
Both stacks run the identical pinned open-loop workload (Poisson
arrivals, alternating with and without deadlines, failures included)
and must produce the same completion log, the same final virtual
time, and the same total event count, in the style of
``tests/sim/test_engine_differential.py``. The overload gate pins the
same identity as a sha256 fingerprint; this test is the readable
version that points at the divergence when it breaks.
"""

import pytest

from repro.cluster.resources import cpu_task, server_node
from repro.cluster.topology import build_cluster
from repro.core.functions import FunctionImpl
from repro.core.retry import RetryPolicy
from repro.core.system import PCSICloud
from repro.faas.platforms import WASM
from repro.net.gateway import NoAdmission
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStream

SEED = 77
REQUESTS = 30
RATE = 60.0
DEADLINE = 0.12


def _run_front_door(through_gateway: bool):
    """One pinned open-loop run; returns (log, final_now, event_count).

    Both runs build the same cloud, whose default front door is the
    :class:`NoAdmission` pass-through. ``through_gateway=True`` routes
    every request through it; ``False`` calls the scheduler path
    directly. Everything else is identical.
    """
    sim = Simulator()
    topo = build_cluster(sim, racks=2, nodes_per_rack=2,
                         gpu_nodes_per_rack=0,
                         node_capacity=server_node(cpus=1, memory_gb=4))
    cloud = PCSICloud(sim, seed=SEED, keep_alive=600.0, topology=topo,
                      data_replicas=1)
    client = cloud.client_node()
    cloud.scheduler.control_node = client
    fn = cloud.define_function(
        "diff", [FunctionImpl("wasm", WASM,
                              cpu_task(cpus=1, memory_gb=1),
                              work_ops=2e9)])
    rng = RandomStream(SEED, "diff-arrivals")
    log = []

    def request(i):
        start = sim.now
        deadline = DEADLINE if i % 2 else None
        try:
            if through_gateway:
                result = yield from cloud.gateway.submit(
                    client, fn, tenant="t0", deadline=deadline)
            else:
                result = yield from cloud.invoke(client, fn,
                                                 deadline=deadline)
        except Exception as exc:  # noqa: BLE001 - logged outcome
            log.append((i, type(exc).__name__, repr(sim.now - start)))
            return
        log.append((i, "ok", repr(sim.now - start), repr(result)))

    def arrivals():
        for i in range(REQUESTS):
            yield sim.timeout(rng.exponential(1.0 / RATE))
            sim.spawn(request(i), name=f"req-{i}")

    sim.spawn(arrivals(), name="arrivals")
    cloud.run()
    return log, repr(sim.now), sim._seq


def test_noadmission_byte_identical_to_direct_invoke():
    direct = _run_front_door(through_gateway=False)
    passthrough = _run_front_door(through_gateway=True)
    assert passthrough[0] == direct[0]   # every outcome and latency
    assert passthrough[1] == direct[1]   # final virtual time
    assert passthrough[2] == direct[2]   # total simulation events


def test_noadmission_is_deterministic():
    first = _run_front_door(through_gateway=True)
    second = _run_front_door(through_gateway=True)
    assert first == second


def test_noadmission_overload_outcomes_included():
    """The pinned workload must actually exercise the deadline path —
    a differential over all-ok traffic would prove too little."""
    log, _now, _seq = _run_front_door(through_gateway=False)
    kinds = {entry[1] for entry in log}
    assert "ok" in kinds
    assert "DeadlineExceededError" in kinds


def test_noadmission_passes_arguments_through():
    """A cloud built without ``admission`` gets NoAdmission, which
    forwards every invoke kwarg unchanged."""
    sim = Simulator()
    topo = build_cluster(sim, racks=1, nodes_per_rack=2,
                         gpu_nodes_per_rack=0,
                         node_capacity=server_node(cpus=2, memory_gb=8))
    cloud = PCSICloud(sim, seed=1, topology=topo, data_replicas=1)
    assert isinstance(cloud.gateway, NoAdmission)
    client = cloud.client_node()
    cloud.scheduler.control_node = client
    fn = cloud.define_function(
        "echo", [FunctionImpl("wasm", WASM,
                              cpu_task(cpus=1, memory_gb=1),
                              work_ops=1e8)])
    results = []

    def flow():
        results.append((yield from cloud.gateway.submit(
            client, fn, tenant="anyone",
            retry=RetryPolicy(max_attempts=2))))

    cloud.run_process(flow())
    assert len(results) == 1


def test_admission_accepts_only_none_or_a_gateway_config():
    with pytest.raises(ValueError):
        PCSICloud(racks=1, nodes_per_rack=2, gpu_nodes_per_rack=0,
                  admission="none")
