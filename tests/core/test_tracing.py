"""Tests for invocation trace spans."""

from repro.cluster import cpu_task
from repro.core import FunctionImpl, Intermediate, PCSICloud, TaskGraph
from repro.faas import WASM
from repro.sim import NULL_SPAN


def test_invoke_spans_recorded_when_tracing():
    cloud = PCSICloud(racks=2, nodes_per_rack=4, gpu_nodes_per_rack=0,
                      seed=66, trace=True)
    fn = cloud.define_function(
        "traced", [FunctionImpl("wasm", WASM, cpu_task(), work_ops=1e8)])
    client = cloud.client_node()

    def flow():
        yield from cloud.invoke(client, fn)
        yield from cloud.invoke(client, fn)

    cloud.run_process(flow())
    tracer = cloud.tracer
    roots = [s for s in tracer.roots() if s.name == "invoke"]
    history = cloud.scheduler.history
    assert len(roots) == len(history) == 2
    first, second = roots
    assert first.attributes["fn"] == "traced"
    assert first.attributes["cold"] is True
    assert second.attributes["cold"] is False
    assert first.attributes["node"] in {n.node_id
                                        for n in cloud.topology.nodes}
    for root, inv in zip(roots, history):
        execute = next(s for s in tracer.walk(root) if s.name == "execute")
        assert root.attributes["node"] == inv.executor_node
        assert root.attributes["cold"] is inv.cold_start
        assert execute.duration == inv.service_time > 0
        assert root.duration >= execute.duration


def test_tracing_off_by_default():
    cloud = PCSICloud(racks=2, nodes_per_rack=2, gpu_nodes_per_rack=0,
                      seed=66)
    fn = cloud.define_function(
        "quiet", [FunctionImpl("wasm", WASM, cpu_task())])
    client = cloud.client_node()

    def flow():
        yield from cloud.invoke(client, fn)

    cloud.run_process(flow())
    assert cloud.tracer.span_count == 0


def _pipeline_graph(cloud):
    """A two-stage produce/consume graph (E4's shape, scaled down)."""
    produce = cloud.define_function(
        "produce", [FunctionImpl("wasm", WASM, cpu_task(), work_ops=1e8)],
        writes=["out"], output_nbytes=4096)
    consume = cloud.define_function(
        "consume", [FunctionImpl("wasm", WASM, cpu_task(), work_ops=1e8)],
        reads=["in"], output_nbytes=0)
    g = TaskGraph("pipeline")
    mid = Intermediate("mid", nbytes_hint=4096)
    g.add_stage("produce", produce, args={"out": mid})
    g.add_stage("consume", consume, args={"in": mid})
    g.link("produce", "consume")
    return g


def run_traced_pipeline(trace):
    cloud = PCSICloud(racks=2, nodes_per_rack=4, gpu_nodes_per_rack=0,
                      seed=66, trace=trace)
    g = _pipeline_graph(cloud)
    client = cloud.client_node()

    def flow():
        result = yield from cloud.submit_graph(client, g)
        return result

    result = cloud.run_process(flow())
    cloud.run()  # drain reapers / background propagation
    return cloud, result


def test_pipeline_span_tree_has_deep_nesting():
    cloud, _result = run_traced_pipeline(trace=True)
    tracer = cloud.tracer
    roots = tracer.roots()
    graph_roots = [s for s in roots if s.name == "graph"]
    assert len(graph_roots) == 1
    # graph -> invoke -> attempt -> execute (and deeper): ISSUE requires
    # at least 3 levels of children below the root.
    assert tracer.depth_of(graph_roots[0]) >= 3
    names = {s.name for s in tracer.walk(graph_roots[0])}
    assert {"graph", "invoke", "attempt", "execute"} <= names
    # The cold start shows up under the first invocation.
    assert tracer.spans(name="sandbox.provision")


def test_pipeline_span_nesting_invariants():
    cloud, _result = run_traced_pipeline(trace=True)
    tracer = cloud.tracer
    seen = set()
    for span in tracer.spans():
        assert span.span_id not in seen
        seen.add(span.span_id)
        assert span.finished, f"span {span.name!r} never ended"
        assert span.end >= span.start
        if span.parent_id is not None:
            parent = tracer.get_span(span.parent_id)
            assert parent is not None
            # Child intervals nest within their parent's.
            assert parent.start <= span.start
            assert span.end <= parent.end, \
                f"{span.name} outlives parent {parent.name}"
        assert span.status == "ok"


def test_pipeline_storage_and_network_spans_linked():
    cloud, _result = run_traced_pipeline(trace=True)
    tracer = cloud.tracer
    # Storage ops carry their consistency level and parent into the tree.
    writes = tracer.spans(name="data.write")
    assert writes
    assert all("consistency" in s.attributes or
               s.attributes.get("ephemeral") for s in writes)
    transfers = tracer.spans(name="net.transfer")
    assert transfers
    assert all(t.parent_id is not None for t in transfers)
    # Category queries see the same traffic.
    assert sum(s.attributes["nbytes"]
               for s in tracer.spans(category="net.transfer")) > 0
    assert len(tracer.spans(category="invoke")) == 2


def test_disabled_tracer_allocates_nothing_during_pipeline():
    cloud, result = run_traced_pipeline(trace=False)
    assert result.latency > 0  # the run itself worked
    tracer = cloud.tracer
    assert tracer.span_count == 0
    assert tracer.span("probe") is NULL_SPAN
