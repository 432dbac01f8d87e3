"""Tests for function definitions, invocation, and the syscall surface."""

import pytest

from repro.cluster import cpu_task, gpu_task
from repro.core import (
    Consistency,
    FunctionDef,
    FunctionImpl,
    InvocationError,
    Mutability,
    ObjectTypeError,
    PCSICloud,
)
from repro.faas import CONTAINER, GPU_CONTAINER, WASM
from repro.net import SizedPayload
from repro.security import AccessDeniedError, Right


@pytest.fixture
def cloud():
    return PCSICloud(racks=2, nodes_per_rack=4, gpu_nodes_per_rack=1,
                     seed=11, keep_alive=300.0)


def wasm_impl(work=1e8):
    return FunctionImpl("wasm", WASM, cpu_task(cpus=1, memory_gb=0.5),
                        work_ops=work)


def run(cloud, gen):
    return cloud.run_process(gen)


# -------------------------------------------------------------- FunctionDef
def test_function_def_needs_impls():
    with pytest.raises(InvocationError):
        FunctionDef(name="empty", impls=[])


def test_function_def_duplicate_impl_names():
    with pytest.raises(InvocationError):
        FunctionDef(name="dup", impls=[wasm_impl(), wasm_impl()])


def test_impl_replace_and_add():
    fn = FunctionDef(name="f", impls=[wasm_impl()])
    gpu = FunctionImpl("gpu", GPU_CONTAINER, gpu_task(), work_ops=1e8)
    fn.add_impl(gpu)
    assert len(fn.impls) == 2
    with pytest.raises(InvocationError):
        fn.add_impl(gpu)
    faster = FunctionImpl("gpu", GPU_CONTAINER, gpu_task(), work_ops=5e7)
    fn.replace_impl("gpu", faster)
    assert fn.impl_named("gpu").work_ops == 5e7
    with pytest.raises(InvocationError):
        fn.replace_impl("missing", faster)


def test_impl_validation():
    with pytest.raises(ValueError):
        FunctionImpl("bad", WASM, cpu_task(), work_ops=-1)


# ---------------------------------------------------------------- invocation
def test_invoke_default_body_reads_and_writes(cloud):
    src = cloud.create_object()
    dst = cloud.create_object()
    cloud.preload(src, SizedPayload(10_000))
    fn = cloud.define_function(
        "copy", [wasm_impl()], reads=["in"], writes=["out"],
        output_nbytes=lambda nbytes, req: nbytes // 2)
    client = cloud.client_node()

    def flow():
        result = yield from cloud.invoke(client, fn,
                                         {"in": src, "out": dst})
        payload = yield from cloud.op_read(client, dst)
        return result, payload

    result, payload = run(cloud, flow())
    assert result == {"bytes_in": 10_000, "bytes_out": 5_000}
    assert payload.nbytes == 5_000


def test_declarative_invoke_records_the_request_passed_in(cloud):
    # The default body is bound to its FunctionDef; nothing internal
    # rides along in the request the invocation records.
    fn = cloud.define_function("plain", [wasm_impl()])
    client = cloud.client_node()
    request = {"k": 1}
    run(cloud, cloud.invoke(client, fn, {}, request))
    assert cloud.scheduler.last_invocation("plain").request == {"k": 1}
    assert request == {"k": 1}


def test_invoke_requires_execute_right(cloud):
    fn = cloud.define_function("f", [wasm_impl()])
    weak = fn.attenuate(Right.READ)
    client = cloud.client_node()

    def flow():
        yield from cloud.invoke(client, weak)

    with pytest.raises(AccessDeniedError):
        run(cloud, flow())


def test_invoke_non_function_object_rejected(cloud):
    ref = cloud.create_object()
    client = cloud.client_node()

    def flow():
        yield from cloud.invoke(client, ref)

    with pytest.raises(ObjectTypeError):
        run(cloud, flow())


def test_request_body_size_limit(cloud):
    fn = cloud.define_function("f", [wasm_impl()])
    client = cloud.client_node()
    huge = {"blob": "x" * 100_000}

    def flow():
        yield from cloud.invoke(client, fn, {}, huge)

    with pytest.raises(InvocationError, match="pass-by-value"):
        run(cloud, flow())


def test_function_objects_are_immutable(cloud):
    fn = cloud.define_function("f", [wasm_impl()])
    assert cloud.mutability_of(fn) == Mutability.IMMUTABLE


def test_programmable_body_syscalls(cloud):
    """A body exercising reads, computes, appends, and FIFOs."""
    data = cloud.create_object()
    log = cloud.create_object(mutability=Mutability.APPEND_ONLY)
    fifo = cloud.create_fifo(host_node="rack0-n1")
    cloud.preload(data, SizedPayload(2048))

    def body(ctx):
        payload = yield from ctx.read(ctx.args["data"])
        yield from ctx.compute(1e7)
        yield from ctx.append(ctx.args["log"],
                              SizedPayload(64, meta="entry"))
        yield from ctx.fifo_put(ctx.args["fifo"],
                                SizedPayload(payload.nbytes // 2))
        return {"processed": payload.nbytes}

    fn = cloud.define_function("pipeline-stage", [wasm_impl()], body=body)
    client = cloud.client_node()

    def flow():
        result = yield from cloud.invoke(
            client, fn, {"data": data, "log": log, "fifo": fifo})
        item = yield from cloud.op_fifo_get(client, fifo)
        return result, item

    result, item = run(cloud, flow())
    assert result == {"processed": 2048}
    assert item.nbytes == 1024


def test_nested_invoke_dynamic_graph(cloud):
    """ctx.invoke spawns children at run time (Ray/Ciel style)."""
    leaf = cloud.define_function("leaf", [wasm_impl(work=1e6)])

    def parent_body(ctx):
        total = 0
        for _ in range(3):
            result = yield from ctx.invoke(ctx.request["leaf_ref"], {}, {})
            total += result["bytes_out"]
        return {"children": 3, "total": total}

    # Pass the leaf reference through request plumbing (small value).
    parent = cloud.define_function("parent", [wasm_impl()],
                                   body=parent_body)
    client = cloud.client_node()

    def flow():
        result = yield from cloud.invoke(client, parent, {},
                                         {"leaf_ref": leaf})
        return result

    result = run(cloud, flow())
    assert result["children"] == 3
    assert len([i for i in cloud.scheduler.history
                if i.fn_name == "leaf"]) == 3


def test_invoke_async_parallel_children(cloud):
    leaf = cloud.define_function("leaf", [wasm_impl(work=5e9)])

    def parent_body(ctx):
        futures = [ctx.invoke_async(ctx.request["leaf_ref"])
                   for _ in range(3)]
        results = []
        for fut in futures:
            results.append((yield fut))
        return {"n": len(results)}

    parent = cloud.define_function("parent", [wasm_impl()],
                                   body=parent_body)
    client = cloud.client_node()

    def flow():
        t0 = cloud.sim.now
        result = yield from cloud.invoke(client, parent, {},
                                         {"leaf_ref": leaf})
        return result, cloud.sim.now - t0

    result, elapsed = run(cloud, flow())
    assert result == {"n": 3}
    leaf_invs = [i for i in cloud.scheduler.history if i.fn_name == "leaf"]
    # Async children overlap: total wall time is far less than the sum
    # of the three service times.
    assert elapsed < sum(i.service_time for i in leaf_invs) * 0.9


def test_warm_pool_avoids_second_cold_start(cloud):
    fn = cloud.define_function("f", [wasm_impl()])
    client = cloud.client_node()

    def flow():
        yield from cloud.invoke(client, fn)
        yield from cloud.invoke(client, fn)

    run(cloud, flow())
    invs = cloud.scheduler.history
    assert invs[0].cold_start is True
    assert invs[1].cold_start is False
    assert invs[1].latency < invs[0].latency


def test_invocation_metering(cloud):
    fn = cloud.define_function("f", [wasm_impl(work=5e9)])
    client = cloud.client_node()

    def flow():
        yield from cloud.invoke(client, fn)

    run(cloud, flow())
    assert cloud.meter.units("compute.requests") == 1
    assert cloud.meter.usd("compute.duration") > 0


def test_invocation_latency_accounting(cloud):
    fn = cloud.define_function("f", [wasm_impl(work=1e9)])
    client = cloud.client_node()

    def flow():
        yield from cloud.invoke(client, fn)

    run(cloud, flow())
    inv = cloud.scheduler.history[-1]
    assert inv.latency >= inv.service_time > 0
    assert cloud.metrics.histogram("invoke.latency", fn="f", impl="wasm",
                                   cold=True).count == 1
