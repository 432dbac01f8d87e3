"""Integration tests for the health plane's end-to-end behaviors.

Everything here drives a real :class:`PCSICloud` with ``health`` on
(8 single-CPU nodes, seed 73 — deterministic: the first dispatch of
any function lands on ``rack0-n0``) and checks the contracts the
tentpole promises: orphaned invokes are re-dispatched and recovered,
completions dedup by idempotency key, open breakers fail retries fast
and shed at the gateway, and quarantined nodes are skipped by the warm
pool.
"""

import pytest

from repro.cluster.failures import FailureInjector
from repro.cluster.health import CircuitOpenError, HealthConfig
from repro.cluster.resources import cpu_task, server_node
from repro.cluster.topology import build_cluster
from repro.core.functions import FunctionImpl
from repro.core.retry import RetryPolicy
from repro.core.system import PCSICloud
from repro.faas.platforms import WASM
from repro.net.gateway import GatewayConfig, ShedError
from repro.sim.deadline import DeadlineExceededError
from repro.sim.engine import Simulator

#: Where the first dispatch of seed 73 lands on the pinned cluster.
LANDING_NODE = "rack0-n0"


def build_cloud(**kwargs):
    sim = Simulator()
    topo = build_cluster(sim, racks=2, nodes_per_rack=4,
                         gpu_nodes_per_rack=0,
                         node_capacity=server_node(cpus=1, memory_gb=4))
    kwargs.setdefault("health", True)
    cloud = PCSICloud(sim, seed=73, keep_alive=600.0, topology=topo,
                      data_replicas=1, **kwargs)
    cloud.scheduler.control_node = cloud.client_node()
    return cloud


def define(cloud, name, ops):
    return cloud.define_function(
        name, [FunctionImpl("wasm", WASM,
                            cpu_task(cpus=1, memory_gb=1),
                            work_ops=ops)])


def snoop_dispatches(cloud):
    """Record every (time, key, node) the scheduler registers."""
    regs = []
    orig = cloud.health.register_dispatch

    def spy(key, node_id):
        regs.append((cloud.sim.now, key, node_id))
        return orig(key, node_id)

    cloud.health.register_dispatch = spy
    return regs


def test_orphaned_invoke_is_redispatched_and_recovered():
    """Crash mid-compute: phi-accrual confirms the node, the orphan
    event interrupts the doomed attempt, and the platform re-dispatches
    to a healthy node — all with ``retry=None`` (recovery is owned
    by the platform, not the user's retry budget)."""
    cloud = build_cloud(trace=True)
    fn = define(cloud, "batch", 5.2e10)   # ~2.2 s of compute
    regs = snoop_dispatches(cloud)
    FailureInjector(cloud.sim, cloud.topology).crash_node(
        LANDING_NODE, at=0.7)
    cloud.run_process(cloud.invoke(cloud.client_node(), fn))

    health = cloud.health
    assert health.orphaned == 1
    assert health.recovered == 1
    (node, at, cause), = health.detector.confirmations
    assert node == LANDING_NODE and cause == "phi-accrual"
    assert 0.7 < at < 2.0           # well before the attempt's own end
    # Re-dispatch went to a healthy node, under the same idempotency key.
    assert [key for _, key, _ in regs] == ["batch#1", "batch#1"]
    assert regs[0][2] == LANDING_NODE
    assert regs[1][2] != LANDING_NODE
    assert cloud.metrics.counter("invoke.orphaned", fn="batch",
                                 cause="phi-accrual").value == 1
    assert cloud.metrics.counter("invoke.recovered", fn="batch",
                                 cause="phi-accrual").value == 1
    root, = cloud.tracer.spans(name="invoke")
    assert root.attributes.get("recovered") == 1
    assert root.attributes.get("recovery_cause") == "phi-accrual"


def test_executor_lost_fast_path_confirms_immediately():
    """The first ExecutorLostError is hard evidence: the node is
    confirmed dead right away (cause ``executor-lost``), long before
    the heartbeat tail would cross phi_confirm."""
    cloud = build_cloud()
    fn = define(cloud, "front", 2.5e9)    # ~107 ms of compute
    regs = snoop_dispatches(cloud)
    FailureInjector(cloud.sim, cloud.topology).crash_node(
        LANDING_NODE, at=0.05)
    cloud.run_process(cloud.invoke(cloud.client_node(), fn,
                                   retry=RetryPolicy(max_attempts=3)))

    (node, at, cause), = cloud.health.detector.confirmations
    assert node == LANDING_NODE and cause == "executor-lost"
    assert at < 0.2                 # phi-accrual alone needs ~0.85 s
    # The retry avoided the corpse.
    assert regs[-1][2] != LANDING_NODE


def test_completion_log_dedups_platform_redispatch():
    """A re-dispatch that finds its idempotency key already completed
    returns the recorded result without re-running the body."""
    cloud = build_cloud()
    fn = define(cloud, "front", 2.5e9)
    # Idempotency keys are minted deterministically: the first invoke
    # of "front" gets "front#1". Pre-record its completion, as if a
    # prior dispatch had finished right as its host was confirmed dead.
    cloud.health.completions.record("front#1", "recorded-result")
    result = cloud.run_process(cloud.invoke(cloud.client_node(), fn))
    assert result == "recorded-result"
    assert cloud.health.deduped == 1
    assert cloud.sim.now < 0.05     # no compute ran (cold start ~107ms)


def test_retry_fails_fast_when_breakers_are_open():
    """The retry loop checks the breaker board before backing off:
    with every breaker for the function open, it raises immediately
    instead of burning the attempt budget against a dead target."""
    cloud = build_cloud()
    fn = define(cloud, "front", 2.5e9)
    for _ in range(cloud.health.config.breaker_consecutive):
        cloud.health.breakers.record("front", "cpu", False, cloud.sim.now)
    assert cloud.health.all_breakers_open("front")
    with pytest.raises(CircuitOpenError):
        cloud.run_process(cloud.invoke(cloud.client_node(), fn,
                                       retry=RetryPolicy(max_attempts=5)))
    assert cloud.metrics.counter("invoke.breaker_failfast",
                                 fn="front").value == 1


def test_gateway_sheds_when_all_breakers_open():
    """Front-door shedding: the admission gateway refuses a function
    whose every (fn, node class) breaker is open."""
    cloud = build_cloud(admission=GatewayConfig(rate_per_tenant=100.0,
                                                burst=100.0))
    fn = define(cloud, "front", 2.5e9)
    for _ in range(cloud.health.config.breaker_consecutive):
        cloud.health.breakers.record("front", "cpu", False, cloud.sim.now)

    with pytest.raises(ShedError) as exc_info:
        cloud.run_process(cloud.gateway.submit(cloud.client_node(), fn,
                                               tenant="t0"))
    assert exc_info.value.cause == "circuit_open"
    assert cloud.gateway.shed == 1


def test_warm_pool_skips_quarantined_node():
    """A quarantined node's warm executor is left idle: the pool
    cold-starts on a healthy node instead of reusing tainted warmth."""
    cloud = build_cloud()
    fn = define(cloud, "front", 2.5e9)
    regs = snoop_dispatches(cloud)
    client = cloud.client_node()
    cloud.run_process(cloud.invoke(client, fn))
    assert regs[0][2] == LANDING_NODE   # warm executor now lives there
    cloud.health.ejector._quarantined[LANDING_NODE] = 1e9
    cloud.run_process(cloud.invoke(client, fn))
    assert regs[1][2] != LANDING_NODE


def test_placement_avoids_dead_node_with_fallback():
    """Placement filters nodes the health plane flags, but falls back
    to the unfiltered list rather than failing when everything is
    flagged."""
    cloud = build_cloud()
    cloud.health.detector.confirm(LANDING_NODE, 0.0, "test")
    fn = define(cloud, "front", 2.5e9)
    regs = snoop_dispatches(cloud)
    cloud.run_process(cloud.invoke(cloud.client_node(), fn))
    assert regs[0][2] != LANDING_NODE
    # All flagged: the filter must not strand placement entirely.
    for node in cloud.topology.nodes:
        cloud.health.ejector._quarantined[node.node_id] = 1e9
    candidates = cloud.policy.candidates(
        cpu_task(cpus=1, memory_gb=1), WASM)
    assert candidates


def test_deadline_over_crashed_node_records_cause():
    """An invoke that times out because its host died mid-compute gets
    ``cause="node-crash"`` on its root span — even without a health
    plane (the expiry path checks topology liveness directly)."""
    cloud = build_cloud(health=None, trace=True)
    fn = define(cloud, "batch", 5.2e10)
    FailureInjector(cloud.sim, cloud.topology).crash_node(
        LANDING_NODE, at=0.3)
    with pytest.raises(DeadlineExceededError):
        cloud.run_process(cloud.invoke(cloud.client_node(), fn,
                                       deadline=0.5))
    root, = cloud.tracer.spans(name="invoke")
    assert root.attributes.get("cause") == "node-crash"
    assert root.attributes.get("crashed_node") == LANDING_NODE
