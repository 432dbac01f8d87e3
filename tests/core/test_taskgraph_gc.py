"""Tests for task graphs, graph execution, and garbage collection."""

import pytest

from repro.cluster import cpu_task, gpu_task
from repro.core import (
    FunctionImpl,
    Intermediate,
    InvocationError,
    Mutability,
    ObjectKind,
    PCSICloud,
    TaskGraph,
)
from repro.faas import CONTAINER, GPU_CONTAINER, WASM
from repro.net import SizedPayload
from repro.security import Right


def wasm_impl(name="wasm", work=1e8):
    return FunctionImpl(name, WASM, cpu_task(memory_gb=0.5), work_ops=work)


@pytest.fixture
def cloud():
    return PCSICloud(racks=2, nodes_per_rack=4, gpu_nodes_per_rack=1,
                     seed=5, keep_alive=600.0)


# ------------------------------------------------------------------ structure
def test_graph_duplicate_stage_rejected(cloud):
    fn = cloud.define_function("f", [wasm_impl()])
    g = TaskGraph()
    g.add_stage("a", fn)
    with pytest.raises(InvocationError):
        g.add_stage("a", fn)


def test_graph_link_validation(cloud):
    fn = cloud.define_function("f", [wasm_impl()])
    g = TaskGraph()
    g.add_stage("a", fn)
    with pytest.raises(InvocationError):
        g.link("a", "ghost")
    with pytest.raises(InvocationError):
        g.link("a", "a")


def test_topo_order_and_cycles(cloud):
    fn = cloud.define_function("f", [wasm_impl()])
    g = TaskGraph()
    for name in "abc":
        g.add_stage(name, fn)
    g.link("a", "b")
    g.link("b", "c")
    assert g.topo_order() == ["a", "b", "c"]
    g.link("c", "a")
    with pytest.raises(InvocationError):
        g.topo_order()


def test_inconsistent_intermediate_rejected(cloud):
    fn = cloud.define_function("f", [wasm_impl()])
    g = TaskGraph()
    g.add_stage("a", fn, args={"out": Intermediate("x", nbytes_hint=10)})
    g.add_stage("b", fn, args={"in": Intermediate("x", nbytes_hint=20)})
    with pytest.raises(InvocationError):
        g.intermediates()


# ------------------------------------------------------------------ execution
def build_two_stage(cloud):
    produce = cloud.define_function(
        "produce", [wasm_impl("wasm", work=1e8)],
        writes=["out"], output_nbytes=4096)
    consume = cloud.define_function(
        "consume", [wasm_impl("wasm", work=1e8)],
        reads=["in"], output_nbytes=0)
    g = TaskGraph("two-stage")
    mid = Intermediate("mid", nbytes_hint=4096)
    g.add_stage("produce", produce, args={"out": mid})
    g.add_stage("consume", consume, args={"in": mid})
    g.link("produce", "consume")
    return g


def test_graph_runs_stages_in_order(cloud):
    g = build_two_stage(cloud)
    client = cloud.client_node()

    def flow():
        result = yield from cloud.submit_graph(client, g)
        return result

    result = cloud.run_process(flow())
    assert set(result.results) == {"produce", "consume"}
    assert result.results["consume"]["bytes_in"] == 4096
    assert result.latency > 0


def test_colocate_policy_lands_consumer_with_producer(cloud):
    g = build_two_stage(cloud)
    client = cloud.client_node()

    def flow():
        result = yield from cloud.submit_graph(client, g)
        return result

    result = cloud.run_process(flow())
    assert result.colocated("produce", "consume")


def test_naive_policy_usually_separates_stages():
    cloud = PCSICloud(racks=4, nodes_per_rack=8, gpu_nodes_per_rack=0,
                      placement="naive", seed=9, keep_alive=600.0)
    g = build_two_stage(cloud)
    client = cloud.client_node()
    colocated = 0
    for _ in range(10):
        def flow():
            result = yield from cloud.submit_graph(client, g)
            return result
        result = cloud.run_process(flow())
        if result.colocated("produce", "consume"):
            colocated += 1
    # 32 nodes: random placement rarely co-locates (warm pools may
    # re-use executors, so allow some).
    assert colocated < 8


def test_overlapping_graphs_report_their_own_placements():
    """Each graph reads a stage's node from that stage's own invocation.

    The scheduler's shared ``history`` is appended before the result
    travels back to the caller, so while graph "a" ships its 8 MB
    result, graph "b"'s stage finishes and appends too. Reading
    ``history[-1]`` after the invoke would hand "a" the node of "b"'s
    stage.
    """
    cloud = PCSICloud(racks=4, nodes_per_rack=8, gpu_nodes_per_rack=0,
                      placement="naive", seed=9, keep_alive=600.0)

    def big(ctx):
        yield from ctx.compute(1e8)
        return {"node": ctx.node_id, "blob": bytes(8_000_000)}

    def small(ctx):
        yield from ctx.compute(1e8)
        return {"node": ctx.node_id}

    graphs = {}
    for name, body in (("a", big), ("b", small)):
        g = TaskGraph(name)
        g.add_stage(name, cloud.define_function(name, [wasm_impl(name)],
                                                body=body))
        graphs[name] = g
    client = cloud.client_node()
    results = {}

    def submit(name, delay):
        yield cloud.sim.timeout(delay)
        results[name] = yield from cloud.submit_graph(client, graphs[name])

    cloud.sim.spawn(submit("a", 0.0))
    cloud.sim.spawn(submit("b", 0.002))
    cloud.run()
    assert results["a"].latency > results["b"].latency
    nodes = {name: results[name].results[name]["node"] for name in "ab"}
    assert nodes["a"] != nodes["b"]
    for name in "ab":
        assert results[name].placements == {name: nodes[name]}


def test_intermediates_ephemeral_under_colocate_replicated_under_naive():
    colo = PCSICloud(racks=2, nodes_per_rack=4, placement="colocate",
                     seed=1)
    naive = PCSICloud(racks=2, nodes_per_rack=4, placement="naive", seed=1)
    for cloud, expect_ephemeral in ((colo, True), (naive, False)):
        g = build_two_stage(cloud)
        client = cloud.client_node()

        def flow():
            result = yield from cloud.submit_graph(client, g)
            return result

        result = cloud.run_process(flow())
        ref = result.intermediate_refs["mid"]
        assert cloud.table.get(ref.object_id).ephemeral is expect_ephemeral


# ------------------------------------------------------------------------- GC
def test_gc_collects_unreachable_objects(cloud):
    root = cloud.create_root("alice")
    kept = cloud.create_object()
    doomed = cloud.create_object()
    cloud.link(root, "kept", kept)
    client = cloud.client_node()

    def flow():
        yield from cloud.op_write(client, kept, SizedPayload(1000))
        yield from cloud.op_write(client, doomed, SizedPayload(3000))
        stats = yield from cloud.collect_garbage()
        return stats

    stats = cloud.run_process(flow())
    assert stats.collected >= 1
    assert kept.object_id in cloud.table
    assert doomed.object_id not in cloud.table
    # 3 replicas held the doomed content.
    assert stats.bytes_reclaimed == 3 * 3000


def test_gc_spares_pinned_objects(cloud):
    floating = cloud.create_object()
    cloud.refs.pin(floating.object_id)

    def flow():
        stats = yield from cloud.collect_garbage()
        return stats

    cloud.run_process(flow())
    assert floating.object_id in cloud.table
    cloud.refs.unpin(floating.object_id)

    def flow2():
        stats = yield from cloud.collect_garbage()
        return stats

    cloud.run_process(flow2())
    assert floating.object_id not in cloud.table


def test_gc_walks_directory_graph(cloud):
    root = cloud.create_root("t")
    d1 = cloud.mkdir()
    d2 = cloud.mkdir()
    leaf = cloud.create_object()
    cloud.link(root, "d1", d1)
    cloud.link(d1, "d2", d2)
    cloud.link(d2, "leaf", leaf)

    def flow():
        return (yield from cloud.collect_garbage())

    stats = cloud.run_process(flow())
    for ref in (d1, d2, leaf):
        assert ref.object_id in cloud.table


def test_gc_walks_union_lower_layers(cloud):
    root = cloud.create_root("t")
    upper = cloud.mkdir()
    lower = cloud.mkdir()
    in_lower = cloud.create_object()
    cloud.link(lower, "f", in_lower)
    cloud.mount_union(upper, [lower])
    cloud.link(root, "u", upper)
    # lower is NOT linked anywhere; reachability must flow through the
    # union mount.

    def flow():
        return (yield from cloud.collect_garbage())

    cloud.run_process(flow())
    assert lower.object_id in cloud.table
    assert in_lower.object_id in cloud.table


def test_gc_reclaims_fifo_state(cloud):
    fifo = cloud.create_fifo(host_node="rack0-n0")
    oid = fifo.object_id
    assert oid in cloud._fifos

    def flow():
        return (yield from cloud.collect_garbage())

    cloud.run_process(flow())
    assert oid not in cloud.table
    assert oid not in cloud._fifos


def test_gc_keeps_args_of_live_invocations(cloud):
    """An object passed to a running function must survive GC even when
    unlinked from every namespace."""
    data = cloud.create_object()
    cloud.preload(data, SizedPayload(100))

    def slow_body(ctx):
        payload = yield from ctx.read(ctx.args["data"])
        yield from ctx.compute(5e12)  # long-running
        return {"n": payload.nbytes}

    fn = cloud.define_function("slow", [wasm_impl(work=0)], body=slow_body)
    client = cloud.client_node()
    outcome = {}

    def invoker():
        outcome["result"] = yield from cloud.invoke(client, fn,
                                                    {"data": data})

    def collector():
        yield cloud.sim.timeout(1.0)  # while the function still runs
        outcome["stats"] = yield from cloud.collect_garbage()

    cloud.sim.spawn(invoker())
    cloud.sim.spawn(collector())
    cloud.sim.run()
    assert outcome["result"]["n"] == 100  # read succeeded, GC didn't bite
