"""Differential pin: ``health=None`` is byte-identical to the seed.

The health plane (detector, breakers, ejection, crash recovery) hooks
into the scheduler's attempt path, the placement candidate filter, the
warm pool's idle scan, and the gateway's admission check. A cloud built
without a health plane runs the same hooks against the no-op
``NO_HEALTH`` plane — so it must replay the pre-health-plane event
sequence *bit for bit*: same outcomes, same latencies, same virtual
clock, and a simulator event count pinned beside them.

The outcome digest below was captured from the seed code before the
health plane existed (the workload deliberately exercises every hooked
path: retries over a mid-run node crash, deadline expiries, warm-pool
queueing, and placement around a dead node). If it ever drifts, a
health-plane hook leaked into the default path. The event count is
pinned separately, so a kernel change that schedules fewer events
re-pins a count while the outcomes visibly stay put.
"""

from repro.bench.result import outcome_record
from repro.cluster.failures import FailureInjector
from repro.cluster.health import NO_HEALTH
from repro.cluster.resources import cpu_task, server_node
from repro.cluster.topology import build_cluster
from repro.core.functions import FunctionImpl
from repro.core.retry import RetryPolicy
from repro.core.system import PCSICloud
from repro.faas.platforms import WASM
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStream

#: Digest of every outcome and the final clock, captured on the seed
#: code (pre-health-plane), pinned forever.
SEED_OUTCOME_DIGEST = "6ca50d971d7713e7"
#: The simulator's exact event count for the same run.
SEED_EVENTS = 399


def run_seed_workload(**cloud_kwargs):
    """A pinned mini-workload through every health-hooked code path.

    40 Poisson arrivals (alternating deadline / no deadline, every
    third with retries) against a small all-CPU cluster; one node is
    crashed mid-run so retries, placement around a corpse, and the
    pool's dead-node release path all execute. Returns a digest of
    every outcome kind and exact latency plus the final clock, and the
    simulator's final event count.
    """
    sim = Simulator()
    topo = build_cluster(sim, racks=2, nodes_per_rack=4,
                         gpu_nodes_per_rack=0,
                         node_capacity=server_node(cpus=1, memory_gb=4))
    cloud = PCSICloud(sim, seed=73, keep_alive=600.0, topology=topo,
                      data_replicas=1, **cloud_kwargs)
    cloud.scheduler.control_node = cloud.client_node()
    fn = cloud.define_function(
        "front", [FunctionImpl("wasm", WASM,
                               cpu_task(cpus=1, memory_gb=1),
                               work_ops=2.5e9)])
    client = cloud.client_node()
    injector = FailureInjector(sim, topo)
    injector.crash_node("rack0-n1", at=0.6)
    rng = RandomStream(73, "diff-arrivals")
    outcomes = []

    def request(i: int):
        start = sim.now
        deadline = 0.5 if i % 2 else None
        retry = RetryPolicy(max_attempts=3) if i % 3 == 0 else None
        try:
            yield from cloud.invoke(client, fn, deadline=deadline,
                                    retry=retry)
        except Exception as exc:  # noqa: BLE001 - outcome recorded
            outcomes.append((type(exc).__name__, repr(sim.now - start)))
            return
        outcomes.append(("ok", repr(sim.now - start)))

    def arrivals():
        for i in range(40):
            yield sim.timeout(rng.exponential(1.0 / 30.0))
            sim.spawn(request(i), name=f"diff-{i}")

    sim.spawn(arrivals(), name="diff-load")
    cloud.run()
    record = outcome_record(outcomes, sim)
    return record["outcome_digest"], record["events"]


def test_health_off_matches_seed_fingerprint():
    """No health plane configured -> the seed outcomes, exactly, at the
    pinned event count."""
    assert run_seed_workload() == (SEED_OUTCOME_DIGEST, SEED_EVENTS)


def test_health_off_is_default():
    cloud = PCSICloud(racks=1, nodes_per_rack=2, gpu_nodes_per_rack=0,
                      data_replicas=1)
    assert cloud.health is NO_HEALTH
    assert cloud.policy.health is NO_HEALTH
