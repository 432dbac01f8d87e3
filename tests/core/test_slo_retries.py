"""Tests for SLO-aware implementation selection and invocation retries."""

import pytest

from repro.cluster import NetworkUnreachableError, cpu_task, gpu_task
from repro.core import (
    Consistency,
    FunctionDef,
    FunctionImpl,
    ImplOptimizer,
    PCSICloud,
)
from repro.cluster.failures import FailureInjector
from repro.core.retry import RetryPolicy
from repro.faas import GPU_CONTAINER, WASM
from repro.net import SizedPayload
from repro.storage import QuorumUnavailableError


def cheap_slow_impl(work=5e10):
    """~1.4 s on wasm, pennies."""
    return FunctionImpl("wasm", WASM, cpu_task(cpus=1, memory_gb=0.5),
                        work_ops=work)


def fast_pricey_impl(work=5e10):
    """~50 ms on a GPU, with the accelerator surcharge."""
    return FunctionImpl("gpu", GPU_CONTAINER, gpu_task(), work_ops=work)


# ---------------------------------------------------------------- SLO menu
def test_slo_validation():
    with pytest.raises(ValueError):
        ImplOptimizer(slo=0)


def test_loose_slo_picks_cheapest_qualifier():
    """With 'good enough' defined loosely, the cheap impl wins even
    under a latency-oriented deployment (§4.2)."""
    fn = FunctionDef(name="f", impls=[cheap_slow_impl(),
                                      fast_pricey_impl()])
    opt = ImplOptimizer(goal="latency", slo=10.0,
                        cold_start_amortization=1000)
    assert opt.choose(fn, {}).name == "wasm"


def test_tight_slo_forces_fast_impl():
    fn = FunctionDef(name="f", impls=[cheap_slow_impl(),
                                      fast_pricey_impl()])
    opt = ImplOptimizer(goal="cost", slo=0.5,
                        cold_start_amortization=1000)
    assert opt.choose(fn, {}).name == "gpu"


def test_impossible_slo_falls_back_to_fastest():
    fn = FunctionDef(name="f", impls=[cheap_slow_impl(),
                                      fast_pricey_impl()])
    opt = ImplOptimizer(goal="cost", slo=1e-6,
                        cold_start_amortization=1000)
    assert opt.choose(fn, {}).name == "gpu"


def test_slo_threads_through_cloud():
    cloud = PCSICloud(racks=2, nodes_per_rack=4, gpu_nodes_per_rack=1,
                      seed=21, goal="cost", slo=10.0)
    assert cloud.optimizer.slo == 10.0
    fn = cloud.define_function("f", [cheap_slow_impl(work=1e9),
                                     fast_pricey_impl(work=1e9)])
    client = cloud.client_node()

    def flow():
        yield from cloud.invoke(client, fn)

    cloud.run_process(flow())
    assert cloud.scheduler.history[-1].impl_name == "wasm"


# ------------------------------------------------------------------ retries
def make_failing_cloud():
    """A cloud whose data replicas are partitioned away for a while."""
    cloud = PCSICloud(racks=3, nodes_per_rack=4, gpu_nodes_per_rack=0,
                      seed=22, keep_alive=600.0)
    return cloud


def test_retry_validation():
    with pytest.raises(ValueError, match="max_attempts"):
        RetryPolicy(max_attempts=0)


def test_invocation_retries_after_quorum_returns():
    """A read hitting a lost quorum fails the attempt; the retry after
    the partition heals succeeds — safely, because the function holds
    no implicit state."""
    cloud = make_failing_cloud()
    data = cloud.create_object(consistency=Consistency.LINEARIZABLE)
    cloud.preload(data, SizedPayload(512))

    def body(ctx):
        payload = yield from ctx.read(ctx.args["data"])
        return {"n": payload.nbytes}

    fn = cloud.define_function("reader", [cheap_slow_impl(work=0)],
                               body=body)
    client = cloud.client_node()

    # Cut two of the three data replicas off from everything else for
    # a moment: linearizable reads lose their quorum.
    replicas = cloud.data.store.replica_nodes
    others = {n.node_id for n in cloud.topology.nodes
              if n.node_id not in replicas[:2]}
    inj = FailureInjector(cloud.sim, cloud.topology, cloud.network)
    inj.partition(set(replicas[:2]), others, at=0.0, heal_at=3.0)

    def flow():
        result = yield from cloud.scheduler.invoke(
            client, fn, {"data": data}, {},
            retry=RetryPolicy(max_attempts=50))
        return result

    result = cloud.run_process(flow())
    assert result == {"n": 512}
    assert cloud.metrics.counter("invoke.retries").value >= 1
    assert cloud.sim.now >= 3.0  # success only after the heal


def test_no_retries_by_default():
    cloud = make_failing_cloud()
    data = cloud.create_object(consistency=Consistency.LINEARIZABLE)
    cloud.preload(data, SizedPayload(512))

    def body(ctx):
        payload = yield from ctx.read(ctx.args["data"])
        return {"n": payload.nbytes}

    fn = cloud.define_function("reader", [cheap_slow_impl(work=0)],
                               body=body)
    client = cloud.client_node()
    replicas = cloud.data.store.replica_nodes
    others = {n.node_id for n in cloud.topology.nodes
              if n.node_id not in replicas[:2]}
    inj = FailureInjector(cloud.sim, cloud.topology, cloud.network)
    inj.partition(set(replicas[:2]), others, at=0.0, heal_at=30.0)

    def flow():
        yield from cloud.invoke(client, fn, {"data": data})

    with pytest.raises((NetworkUnreachableError, QuorumUnavailableError)):
        cloud.run_process(flow())


def test_application_errors_never_retried():
    cloud = make_failing_cloud()
    attempts = []

    def body(ctx):
        attempts.append(1)
        yield ctx._kernel.sim.timeout(0)
        raise KeyError("app bug")

    fn = cloud.define_function("buggy", [cheap_slow_impl(work=0)],
                               body=body)
    client = cloud.client_node()

    def flow():
        yield from cloud.scheduler.invoke(
            client, fn, {}, {}, retry=RetryPolicy(max_attempts=5))

    with pytest.raises(KeyError):
        cloud.run_process(flow())
    assert len(attempts) == 1  # not retried


def test_pool_skips_executors_on_dead_nodes():
    cloud = make_failing_cloud()
    fn = cloud.define_function("f", [cheap_slow_impl(work=1e8)])
    client = cloud.client_node()

    def first():
        yield from cloud.invoke(client, fn)

    # Keep the control plane away from the node we are going to crash.
    cloud.scheduler.control_node = client
    cloud.run_process(first())
    first_node = cloud.scheduler.history[-1].executor_node
    assert first_node != client
    cloud.topology.node(first_node).crash()

    def second():
        yield from cloud.invoke(client, fn)

    cloud.run_process(second())
    second_inv = cloud.scheduler.history[-1]
    assert second_inv.executor_node != first_node
    assert second_inv.cold_start  # the stranded sandbox was not reused
