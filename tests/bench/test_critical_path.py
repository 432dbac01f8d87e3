"""Tests for critical-path extraction and the Chrome trace export."""

import json

import pytest

from repro.bench import (
    critical_path,
    invocation_critical_paths,
    merged_by_name,
)
from repro.cluster import cpu_task
from repro.core import FunctionImpl, PCSICloud
from repro.faas import WASM
from repro.sim import Tracer


# ------------------------------------------------------------- synthetic
class Clock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def build_synthetic():
    """root [0,10] with child a [1,4], child b [6,9]; 4s of self time."""
    clk = Clock()
    tracer = Tracer(enabled=True, clock=clk)
    root = tracer.start_span("root")
    clk.t = 1.0
    a = tracer.start_span("a", parent=root)
    clk.t = 4.0
    tracer.end_span(a)
    clk.t = 6.0
    b = tracer.start_span("b", parent=root)
    clk.t = 9.0
    tracer.end_span(b)
    clk.t = 10.0
    tracer.end_span(root)
    return tracer, root


def test_synthetic_attribution_exact():
    tracer, root = build_synthetic()
    report = critical_path(tracer, root)
    by_name = report.by_name()
    assert by_name["root"] == pytest.approx(4.0)  # 0-1, 4-6, 9-10
    assert by_name["a"] == pytest.approx(3.0)
    assert by_name["b"] == pytest.approx(3.0)
    assert sum(s.contribution for s in report.segments) \
        == pytest.approx(report.total)


def test_parallel_children_charge_only_blocking_time():
    """Two children covering the same window must not double-count."""
    clk = Clock()
    tracer = Tracer(enabled=True, clock=clk)
    root = tracer.start_span("root")
    fast = tracer.start_span("fast", parent=root)
    slow = tracer.start_span("slow", parent=root)
    clk.t = 2.0
    tracer.end_span(fast)
    clk.t = 5.0
    tracer.end_span(slow)
    tracer.end_span(root)
    report = critical_path(tracer, root)
    total = sum(s.contribution for s in report.segments)
    assert total == pytest.approx(5.0)
    # The slower replica dominates; the faster one only gets the
    # window the slow one doesn't cover going backwards (none here).
    assert report.by_name()["slow"] == pytest.approx(5.0)
    assert "fast" not in report.by_name()


def test_segments_ordered_and_disjoint():
    tracer, root = build_synthetic()
    report = critical_path(tracer, root)
    for prev, cur in zip(report.segments, report.segments[1:]):
        assert prev.end <= cur.start + 1e-12
    assert report.segments[0].start == pytest.approx(root.start)
    assert report.segments[-1].end == pytest.approx(root.end)


def test_empty_tracer_raises():
    with pytest.raises(ValueError):
        critical_path(Tracer(enabled=True))


# ------------------------------------------------------------- end-to-end
@pytest.fixture(scope="module")
def traced_cloud():
    cloud = PCSICloud(racks=2, nodes_per_rack=4, gpu_nodes_per_rack=0,
                      seed=91, trace=True)
    fn = cloud.define_function(
        "work", [FunctionImpl("wasm", WASM, cpu_task(), work_ops=2e8)])
    client = cloud.client_node()

    def flow():
        for _ in range(3):
            yield from cloud.invoke(client, fn)

    cloud.run_process(flow())
    cloud.run()
    return cloud


def test_invocation_critical_paths_sum_to_latency(traced_cloud):
    tracer = traced_cloud.tracer
    reports = invocation_critical_paths(tracer)
    history = traced_cloud.scheduler.history
    assert len(reports) == len(history) == 3
    for report, inv in zip(reports, history):
        attributed = sum(s.contribution for s in report.segments)
        # Acceptance bar: within 1% of the end-to-end latency. The
        # construction guarantees exact, so this is a loose check.
        assert attributed == pytest.approx(report.total, rel=1e-9)
        # The root span covers the full client-observed window:
        # dispatch + attempt + result return. The invocation's latency
        # starts at submission, so the span is a strict superset.
        assert inv.latency <= report.total <= 2 * inv.latency


def test_cold_start_dominates_first_invocation(traced_cloud):
    reports = invocation_critical_paths(traced_cloud.tracer)
    first = reports[0].by_name()
    assert "sandbox.provision" in first
    # Cold start is a major contributor to invocation #1 (a 5 ms
    # provision against a ~6 ms compute).
    assert first["sandbox.provision"] > 0.25 * reports[0].total
    # Warm invocations never pay it.
    assert "sandbox.provision" not in reports[1].by_name()


def test_report_render_and_merge(traced_cloud):
    reports = invocation_critical_paths(traced_cloud.tracer)
    text = reports[0].render()
    assert "critical path of 'invoke'" in text
    assert "sandbox.provision" in text
    merged = merged_by_name(reports)
    # Execution time lands on the leaf "compute" span, not "execute",
    # because attribution always charges the deepest covering span.
    assert merged["compute"] > 0
    assert list(merged.values()) == sorted(merged.values(), reverse=True)


# ------------------------------------------------------------- chrome json
def test_chrome_trace_export_is_valid(traced_cloud, tmp_path):
    tracer = traced_cloud.tracer
    path = tmp_path / "trace.json"
    tracer.write_chrome_trace(str(path))
    doc = json.loads(path.read_text())
    events = doc["traceEvents"]
    assert len(events) == tracer.span_count
    ids = set()
    for ev in events:
        assert ev["ph"] == "X"
        assert ev["ts"] >= 0 and ev["dur"] >= 0
        assert isinstance(ev["name"], str) and ev["name"]
        assert isinstance(ev["pid"], int) and isinstance(ev["tid"], int)
        ids.add(ev["args"]["span_id"])
        parent = ev["args"].get("parent_id")
        if parent is not None:
            assert tracer.get_span(parent) is not None
    assert len(ids) == len(events)
    # Each invocation renders on its own track (tid = root span id).
    roots = {tracer.root_of(s).span_id for s in tracer.spans()}
    assert {ev["tid"] for ev in events} == roots
