"""Tests for scatter/gather reads and executor-loss recovery."""

import pytest

from repro.cluster import MB, cpu_task
from repro.cluster.failures import FailureInjector
from repro.core import Consistency, FunctionImpl, PCSICloud
from repro.core.retry import RetryPolicy
from repro.faas import WASM, ExecutorLostError
from repro.net import SizedPayload
from repro.sim import MS


@pytest.fixture
def cloud():
    return PCSICloud(racks=3, nodes_per_rack=4, gpu_nodes_per_rack=0,
                     seed=55, keep_alive=600.0)


# ------------------------------------------------------------- range reads
def test_range_read_returns_requested_length(cloud):
    ref = cloud.create_object(consistency=Consistency.EVENTUAL)
    cloud.preload(ref, SizedPayload(1 * MB, meta="blob"))
    client = cloud.client_node()

    def flow():
        chunk = yield from cloud.op_read_range(client, ref,
                                               offset=1000, length=4096)
        return chunk

    chunk = cloud.run_process(flow())
    assert chunk.nbytes == 4096
    assert chunk.meta == "blob"


def test_range_read_much_cheaper_than_full_read(cloud):
    """Small-block reads from a large object move small payloads —
    the fine-grained-operations case §2.1 says REST serves poorly."""
    ref = cloud.create_object(consistency=Consistency.EVENTUAL)
    cloud.preload(ref, SizedPayload(64 * MB))
    client = cloud.client_node()

    def flow():
        t0 = cloud.sim.now
        yield from cloud.op_read(client, ref)
        full = cloud.sim.now - t0
        t1 = cloud.sim.now
        yield from cloud.op_read_range(client, ref, 0, 4096)
        ranged = cloud.sim.now - t1
        return full, ranged

    full, ranged = cloud.run_process(flow())
    assert ranged < full / 10


def test_range_validation(cloud):
    ref = cloud.create_object()
    cloud.preload(ref, SizedPayload(100))
    client = cloud.client_node()

    def bad(offset, length):
        def flow():
            yield from cloud.op_read_range(client, ref, offset, length)
        return flow

    for offset, length in ((-1, 10), (0, -5), (50, 51)):
        with pytest.raises(ValueError):
            cloud.run_process(bad(offset, length)())


def test_readv_gathers_in_one_round_trip(cloud):
    """k extents over readv cost ~one exchange; k separate range reads
    cost k exchanges."""
    ref = cloud.create_object(consistency=Consistency.EVENTUAL)
    cloud.preload(ref, SizedPayload(16 * MB))
    # A client that is NOT co-located with any data replica: the win
    # comes from saving network exchanges.
    replicas = set(cloud.data.store.replica_nodes)
    client = next(n.node_id for n in cloud.topology.nodes
                  if n.node_id not in replicas)
    extents = [(i * 100_000, 4096) for i in range(8)]

    def flow():
        t0 = cloud.sim.now
        payloads = yield from cloud.op_readv(client, ref, extents)
        vectored = cloud.sim.now - t0
        t1 = cloud.sim.now
        for offset, length in extents:
            yield from cloud.op_read_range(client, ref, offset, length)
        separate = cloud.sim.now - t1
        return payloads, vectored, separate

    payloads, vectored, separate = cloud.run_process(flow())
    assert [p.nbytes for p in payloads] == [4096] * 8
    assert vectored < separate / 3


def test_readv_validation(cloud):
    ref = cloud.create_object()
    cloud.preload(ref, SizedPayload(100))
    client = cloud.client_node()

    def empty():
        yield from cloud.op_readv(client, ref, [])

    with pytest.raises(ValueError):
        cloud.run_process(empty())

    def overflow():
        yield from cloud.op_readv(client, ref, [(0, 200)])

    with pytest.raises(ValueError):
        cloud.run_process(overflow())


# -------------------------------------------------------------- executor loss
def test_compute_raises_when_node_dies(cloud):
    from repro.faas import CONTAINER, Executor
    node = cloud.topology.node("rack0-n1")
    ex = Executor(cloud.sim, node, CONTAINER, cpu_task())

    def flow():
        yield from ex.provision()
        killer = cloud.sim.spawn(_kill_later(cloud, node, 0.1))
        yield from ex.compute(5e10)  # ~1 s: dies mid-way

    with pytest.raises(ExecutorLostError):
        cloud.run_process(flow())


def _kill_later(cloud, node, delay):
    yield cloud.sim.timeout(delay)
    node.crash()


def test_invocation_survives_executor_loss_with_retry(cloud):
    """Crash the machine running the function mid-compute: with
    retries, the invocation transparently re-runs elsewhere — the
    no-implicit-state payoff."""
    fn = cloud.define_function(
        "long", [FunctionImpl("wasm", WASM, cpu_task(), work_ops=5e10)])
    client = cloud.client_node()
    cloud.scheduler.control_node = client

    outcome = {}

    def busy_executor():
        for pool in cloud.scheduler._pools.values():
            for ex in pool._executors:
                if ex.busy:
                    return ex
        return None

    def invoker():
        result = yield from cloud.invoke(client, fn,
                                         retry=RetryPolicy(max_attempts=3))
        outcome["result"] = result
        outcome["at"] = cloud.sim.now

    def assassin():
        # Wait until the invocation is running, then kill its machine.
        while busy_executor() is None and not outcome:
            yield cloud.sim.timeout(10 * MS)
        yield cloud.sim.timeout(200 * MS)  # mid-compute (~1.4 s total)
        victim = busy_executor()
        if victim is not None and victim.node.node_id != client:
            victim.node.crash()
            outcome["killed"] = victim.node.node_id

    cloud.sim.spawn(invoker())
    cloud.sim.spawn(assassin())
    cloud.sim.run()
    assert "result" in outcome
    assert outcome.get("killed") is not None
    final = cloud.scheduler.history[-1]
    assert final.executor_node != outcome["killed"]
    assert cloud.metrics.counter("invoke.retries").value >= 1


def test_executor_loss_not_retried_without_opt_in(cloud):
    fn = cloud.define_function(
        "long", [FunctionImpl("wasm", WASM, cpu_task(), work_ops=5e10)])
    client = cloud.client_node()
    cloud.scheduler.control_node = client
    failures = []

    def invoker():
        try:
            yield from cloud.invoke(client, fn)
        except ExecutorLostError:
            failures.append(cloud.sim.now)

    def assassin():
        yield cloud.sim.timeout(600 * MS)
        for pool in cloud.scheduler._pools.values():
            for ex in pool._executors:
                if ex.busy:
                    ex.node.crash()

    cloud.sim.spawn(invoker())
    cloud.sim.spawn(assassin())
    cloud.sim.run()
    assert len(failures) == 1
