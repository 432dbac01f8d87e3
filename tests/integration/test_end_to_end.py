"""End-to-end scenarios crossing every subsystem at once."""

import pytest

from repro.cluster import MB, cpu_task
from repro.cluster.failures import FailureInjector
from repro.core import (
    Consistency,
    FunctionImpl,
    Mutability,
    PCSICloud,
)
from repro.core.retry import RetryPolicy
from repro.crdt import ReplicatedCRDTService
from repro.faas import WASM
from repro.net import SizedPayload
from repro.security import AccessDeniedError, Right
from repro.sim import RandomStream
from repro.workloads import (
    LoadDriver,
    ModelServingApp,
    ModelServingConfig,
    constant_rate,
)

SMALL_CFG = ModelServingConfig(upload_nbytes=128 * 1024,
                               weights_nbytes=4 * MB)


def test_pipeline_under_load_with_weight_rollouts():
    """Serve concurrent traffic while weights roll over twice; every
    response must be produced with a version that was current at some
    point during its request (no torn reads of the pointer)."""
    cloud = PCSICloud(racks=4, nodes_per_rack=8, gpu_nodes_per_rack=2,
                      seed=77, keep_alive=600.0)
    app = ModelServingApp(cloud, SMALL_CFG)
    client = cloud.client_node()
    versions_seen = []

    driver = LoadDriver(cloud.sim, RandomStream(77, "e2e"),
                        constant_rate(20.0), horizon=6.0)

    def handler(i):
        _latency, result = yield from app.serve_one(client)
        versions_seen.append(result.results["infer"]["weights"])

    def roller():
        yield cloud.sim.timeout(2.0)
        yield from app.update_weights(client)
        yield cloud.sim.timeout(2.0)
        yield from app.update_weights(client)

    driver.start(handler)
    cloud.sim.spawn(roller())
    cloud.run()
    assert driver.completed > 50
    assert driver.failed == 0
    # Requests queued behind the initial GPU cold start may already see
    # v2; every later rollout must be observed.
    assert {"v2", "v3"} <= set(versions_seen) <= {"v1", "v2", "v3"}
    # The pointer is linearizable and rollouts are spaced far apart, so
    # versions never skip: once v3 is the only thing being served, no
    # completion regresses below v2.
    first_v3 = versions_seen.index("v3")
    assert "v1" not in versions_seen[first_v3:]


def test_multi_tenant_isolation():
    """Two tenants share the cluster; capability discipline keeps each
    inside its own namespace even though functions physically share
    machines and the data layer."""
    cloud = PCSICloud(racks=2, nodes_per_rack=4, gpu_nodes_per_rack=0,
                      seed=78)
    client = cloud.client_node()

    alice_root = cloud.create_root("alice")
    alice_secret = cloud.create_object()
    cloud.preload(alice_secret, SizedPayload(1024, meta="alice-data"))
    cloud.link(alice_root, "secret", alice_secret,
               rights=Right.READ | Right.RESOLVE)

    bob_root = cloud.create_root("bob")

    # Bob's function receives *only* Bob's root.
    def bob_body(ctx):
        yield ctx._kernel.sim.timeout(0)
        try:
            yield from ctx.resolve(ctx.args["root"], "secret")
            return {"leak": True}
        except Exception:
            return {"leak": False}

    bob_fn = cloud.define_function(
        "bob-probe", [FunctionImpl("wasm", WASM, cpu_task())],
        body=bob_body)

    def flow():
        result = yield from cloud.invoke(client, bob_fn,
                                         {"root": bob_root})
        return result

    assert cloud.run_process(flow()) == {"leak": False}

    # Even holding the object id is useless without a capability: a
    # read through an attenuated reference fails on rights.
    readonly = cloud.refs.mint(alice_secret.object_id, Right.READ)
    narrowed = readonly  # READ only: writes must fail

    def write_attempt():
        yield from cloud.op_write(client, narrowed, SizedPayload(1))

    with pytest.raises(AccessDeniedError):
        cloud.run_process(write_attempt())


def test_everything_together_with_failures():
    """Functions + quorum storage + CRDT metrics + GC, while a data
    replica crashes and recovers."""
    cloud = PCSICloud(racks=3, nodes_per_rack=4, gpu_nodes_per_rack=0,
                      seed=79, keep_alive=600.0)
    crdt = ReplicatedCRDTService(
        cloud.sim, cloud.network,
        ["rack0-n1", "rack1-n1", "rack2-n1"])
    cloud.register_device_service("crdt", crdt)
    metrics_dev = cloud.create_device("crdt")
    client = cloud.client_node()

    root = cloud.create_root("app")
    store_obj = cloud.create_object(consistency=Consistency.LINEARIZABLE)
    cloud.link(root, "state", store_obj)

    def body(ctx):
        payload = yield from ctx.read(ctx.args["state"])
        yield from ctx.compute(5e8)
        yield from ctx.write(ctx.args["state"],
                             SizedPayload(payload.nbytes + 64))
        yield from ctx.device(ctx.args["metrics"], "update",
                              {"name": "ops", "method": "increment"})
        return {"size": payload.nbytes}

    fn = cloud.define_function(
        "worker", [FunctionImpl("wasm", WASM, cpu_task())], body=body)
    bin_dir = cloud.mkdir()
    cloud.link(root, "bin", bin_dir)
    cloud.link(bin_dir, "worker", fn)

    # Crash one data replica mid-run; the quorum holds.
    victim = cloud.data.store.replica_nodes[0]
    inj = FailureInjector(cloud.sim, cloud.topology, cloud.network)
    inj.crash_node(victim, at=0.5, recover_at=2.0)

    def flow():
        yield from cloud.op_write(client, store_obj, SizedPayload(64))
        yield from crdt.handle(client, "create",
                               {"name": "ops", "type": "gcounter"})
        for _ in range(8):
            yield from cloud.invoke(client, fn,
                                    {"state": store_obj,
                                     "metrics": metrics_dev},
                                    retry=RetryPolicy(max_attempts=10))
            yield cloud.sim.timeout(0.3)
        # Drop a garbage object and collect.
        doomed = cloud.create_object()
        yield from cloud.op_write(client, doomed, SizedPayload(4096))
        stats = yield from cloud.collect_garbage()
        return stats

    stats = cloud.run_process(flow())
    cloud.run()  # drain gossip
    assert crdt.converged("ops")
    assert crdt.replica_value("rack0-n1", "ops") == 8
    final = cloud.table.get(store_obj.object_id)
    assert final.size == 64 + 8 * 64
    assert stats.collected >= 1
    # Live application state survived the GC.
    assert store_obj.object_id in cloud.table
    assert fn.object_id in cloud.table


def test_cache_invalidation_on_write_after_immutable_era():
    """A MUTABLE object is never served stale after writes, even from a
    node that cached it while the object was APPEND_ONLY-readable."""
    cloud = PCSICloud(racks=2, nodes_per_rack=4, gpu_nodes_per_rack=0,
                      seed=80)
    client = cloud.client_node()
    log = cloud.create_object(mutability=Mutability.APPEND_ONLY,
                              consistency=Consistency.LINEARIZABLE)

    def flow():
        yield from cloud.op_write(client, log, SizedPayload(100),
                                  append=True)
        first = yield from cloud.op_read(client, log)   # caches
        yield from cloud.op_write(client, log, SizedPayload(50),
                                  append=True)          # invalidates
        second = yield from cloud.op_read(client, log)
        return first, second

    first, second = cloud.run_process(flow())
    assert first.nbytes == 100
    assert second.nbytes == 150  # not the stale cached 100


def test_deterministic_replay():
    """Same seed, same everything: the whole stack is reproducible."""
    def run_once():
        cloud = PCSICloud(racks=3, nodes_per_rack=4,
                          gpu_nodes_per_rack=1, seed=81,
                          keep_alive=600.0)
        app = ModelServingApp(cloud, SMALL_CFG)
        client = cloud.client_node()

        def flow():
            latencies = []
            for _ in range(4):
                latency, _ = yield from app.serve_one(client)
                latencies.append(latency)
            return latencies

        latencies = cloud.run_process(flow())
        return latencies, cloud.meter.total_usd, cloud.sim.now

    assert run_once() == run_once()
