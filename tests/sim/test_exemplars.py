"""Histogram exemplars: reservoirs, sampled-root safety, exports."""

import json
import math

import pytest

from repro.cluster.resources import ResourceVector
from repro.core.functions import FunctionImpl
from repro.core.system import PCSICloud
from repro.faas.platforms import CONTAINER
from repro.sim.metrics import Histogram
from repro.sim.metrics_registry import LabeledMetricsRegistry
from repro.sim.trace import RETAIN_WINDOW, ProbabilisticSampler


# -- reservoir mechanics -------------------------------------------------

def test_exemplar_reservoir_bounded_under_heavy_traffic():
    h = Histogram("lat", exemplar_reservoir=4)
    for i in range(10_000):
        h.observe(0.003, exemplar=i)  # all land in one bucket
    buckets = h.exemplars()
    assert len(buckets) == 1
    (pairs,) = buckets.values()
    assert len(pairs) == 4
    # Most-recent-K retention, deterministically.
    assert [trace_id for _v, trace_id in pairs] == [9996, 9997, 9998, 9999]


def test_exemplars_bucketed_by_value():
    h = Histogram("lat")
    h.observe(0.0002, exemplar="fast")
    h.observe(2.0, exemplar="slow")
    h.observe(0.5)  # no exemplar: sample counted, nothing retained
    assert h.count == 3
    fast = h.exemplars_in_bucket(0.0002)
    slow = h.exemplars_in_bucket(2.0)
    assert [t for _v, t in fast] == ["fast"]
    assert [t for _v, t in slow] == ["slow"]
    assert h.exemplars_in_bucket(0.5) == []


def test_exemplars_near_percentile_falls_back_to_neighbor():
    h = Histogram("lat")
    for _ in range(99):
        h.observe(0.001)
    h.observe(5.0)  # the tail sample carries no exemplar...
    h.observe(0.9, exemplar="nearby")  # ...but a neighbor does
    near = h.exemplars_near_percentile(99)
    assert [t for _v, t in near] == ["nearby"]


def test_exemplar_reservoir_must_hold_one():
    with pytest.raises(ValueError):
        Histogram("lat", exemplar_reservoir=0)


# -- sampled-root safety -------------------------------------------------

def _serve_cloud(sampler=None, requests=8):
    cloud = PCSICloud(seed=7, trace=True, sampler=sampler,
                      keep_alive=600.0)
    ref = cloud.define_function("echo", [FunctionImpl(
        "cpu", CONTAINER, ResourceVector(cpus=1, memory=1024 ** 3),
        work_ops=5e8)])
    client = cloud.client_node()

    def flow():
        for _ in range(requests):
            yield from cloud.invoke(client, ref)
            yield cloud.sim.timeout(1.0)

    cloud.run_process(flow())
    return cloud


def test_invoke_exemplars_reference_retained_roots():
    cloud = _serve_cloud()
    root_ids = {root.span_id for root in cloud.tracer.roots()}
    all_ex = cloud.metrics.all_exemplars()
    assert "invoke.latency" in " ".join(all_ex)  # labeled children export
    seen = 0
    for buckets in all_ex.values():
        for bucket in buckets:
            for _value, trace_id in bucket["exemplars"]:
                seen += 1
                assert trace_id in root_ids
                root = cloud.tracer.get_span(trace_id)
                assert root.parent_id is None
    assert seen > 0


def test_head_sampled_out_requests_leave_no_exemplars():
    # With head sampling, dropped trees must never be referenced: every
    # retained exemplar id must resolve to a *kept* root.
    cloud = _serve_cloud(sampler=ProbabilisticSampler(0.5, seed=7),
                         requests=12)
    root_ids = {root.span_id for root in cloud.tracer.roots()}
    exemplar_ids = [trace_id
                    for buckets in cloud.metrics.all_exemplars().values()
                    for bucket in buckets
                    for _v, trace_id in bucket["exemplars"]]
    assert exemplar_ids, "sampled-in requests should retain exemplars"
    assert all(tid in root_ids for tid in exemplar_ids)
    # And sampling actually dropped something, or the test is vacuous.
    assert len(root_ids) < 12


def test_untraced_cloud_records_no_exemplars():
    cloud = PCSICloud(seed=7)  # trace=False -> NULL_SPAN everywhere
    ref = cloud.define_function("echo", [FunctionImpl(
        "cpu", CONTAINER, ResourceVector(cpus=1, memory=1024 ** 3),
        work_ops=5e8)])
    cloud.run_process(cloud.invoke(cloud.client_node(), ref))
    assert cloud.metrics.all_exemplars() == {}


# -- export round-trips --------------------------------------------------

def test_registry_json_export_round_trip():
    reg = LabeledMetricsRegistry()
    reg.histogram("op.latency", op="read").observe(0.004, exemplar=42)
    reg.histogram("op.latency", op="read").observe(7.5, exemplar=43)
    doc = json.loads(json.dumps(reg.to_json(now=1.0)))
    ex = doc["exemplars"]
    entries = [b for buckets in ex.values() for b in buckets]
    pairs = [tuple(p) for b in entries for p in b["exemplars"]]
    assert (0.004, 42) in pairs
    assert (7.5, 43) in pairs
    # The +Inf catch-all bound survives Python's JSON round-trip.
    assert any(b["le"] == math.inf or b["le"] <= 10.0 for b in entries)


def test_line_protocol_emits_exemplar_lines():
    reg = LabeledMetricsRegistry()
    reg.histogram("op.latency", op="read").observe(0.004, exemplar=42)
    out = reg.to_line_protocol(now=1.0)
    exemplar_lines = [ln for ln in out.splitlines() if "exemplar_value" in ln]
    assert len(exemplar_lines) == 2  # labeled child + unlabeled aggregate
    assert any("trace_id=42" in ln for ln in exemplar_lines)


def test_p99_bucket_traceable_to_concrete_span_tree():
    """Acceptance: a p99 invoke.latency bucket resolves, through the
    exported metrics JSON alone, to a retained invoke span tree."""
    cloud = _serve_cloud(requests=10)
    doc = cloud.metrics.to_json(cloud.sim.now)
    # Locate the aggregate invoke.latency histogram's exemplars.
    agg = cloud.metrics.histogram("invoke.latency")
    p99 = agg.p99
    near = agg.exemplars_near_percentile(99)
    assert near, "the p99 bucket must retain at least one exemplar"
    _value, trace_id = near[-1]
    # The same pair is present in the exported JSON document.
    exported = [tuple(p)
                for bucket in doc["exemplars"]["invoke.latency"]
                for p in bucket["exemplars"]]
    assert (_value, trace_id) in exported
    # And the id opens a real retained span tree rooted at an invoke.
    root = cloud.tracer.get_span(trace_id)
    assert root is not None and root.parent_id is None
    names = {span.name for span in cloud.tracer.walk(root)}
    assert "invoke" in names and "execute" in names
    assert p99 >= _value or agg.bucket_index(p99) >= \
        agg.bucket_index(_value)


def test_exemplars_outlive_the_trace_retention_window():
    """The cold invoke's bucket is never refilled, so its exemplar keeps
    linking the first tree long after the window has moved past it."""
    cloud = _serve_cloud(requests=2 * RETAIN_WINDOW + 100)
    cold = cloud.metrics.exemplars("invoke.latency", fn="echo", impl="cpu",
                                   cold=True)
    cold_ids = [trace_id for pairs in cold.values() for _v, trace_id in pairs]
    assert len(cold_ids) == 1
    exemplar_ids = [trace_id
                    for buckets in cloud.metrics.all_exemplars().values()
                    for bucket in buckets
                    for _v, trace_id in bucket["exemplars"]]
    assert cold_ids[0] in exemplar_ids
    for trace_id in exemplar_ids:
        root = cloud.tracer.get_span(trace_id)
        assert root is not None and root.parent_id is None
    # The window did trim: the run's roots outnumber what is kept.
    assert len(cloud.tracer.roots()) < 2 * RETAIN_WINDOW + len(exemplar_ids)
